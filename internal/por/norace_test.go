//go:build !race

package por

const raceEnabled = false
