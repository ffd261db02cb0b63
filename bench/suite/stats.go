package suite

import (
	"math"
	"sort"
)

// Min returns the smallest value; vs must not be empty.
func Min(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		m = math.Min(m, v)
	}
	return m
}

// Max returns the largest value; vs must not be empty.
func Max(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		m = math.Max(m, v)
	}
	return m
}

// Median returns the middle value; vs must not be empty.
func Median(vs []float64) float64 {
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), which
// is the spread measure the acceptance check of the benchmark uses. Fewer
// than two values have no spread: both quartiles are the value itself.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile range as a share of the median.
func Spread(vs []float64) float64 {
	q1, q3 := Quartiles(vs)
	return (q3 - q1) / Median(vs)
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// Outcome classifies one workload × metric comparison.
type Outcome string

const (
	Same       Outcome = "same"
	Better     Outcome = "better"
	Worse      Outcome = "worse"
	Unresolved Outcome = "unresolved"
)

// Judge compares the change's reps with the base's for one metric. The
// reported values a and b are compared against the metric's bound, unless
// the rep-to-rep spread of either side is wider than the bound: a session
// that noisy cannot tell "unchanged" from "changed by the bound", so the
// answer is Unresolved — except when the two rep ranges do not overlap at
// all, which settles the direction whatever the spread.
func Judge(m Metric, a, b float64, repsA, repsB []float64) Outcome {
	sign := 1.0 // worsening is an increase
	if m.Better == "higher" {
		sign = -1
	}
	if math.Max(Spread(repsA), Spread(repsB)) > m.Bound {
		above, below := Min(repsB) > Max(repsA), Max(repsB) < Min(repsA)
		if sign < 0 {
			above, below = below, above
		}
		switch {
		case above:
			return Worse
		case below:
			return Better
		}
		return Unresolved
	}
	switch worsening := sign * (b - a) / a; {
	case worsening > m.Bound:
		return Worse
	case worsening < -m.Bound:
		return Better
	}
	return Same
}
