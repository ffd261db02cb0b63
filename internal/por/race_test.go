//go:build race

package por

const raceEnabled = true
