package bench

import (
	"math"
	"sort"
)

// Median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN when xs is empty. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points that divide xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default exclusive method, so spreads match the ones Python computes
// from the same numbers. It needs at least two values; ok is false
// otherwise.
func Quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// Spread is the interquartile range of xs as a share of its median: the
// run-to-run noise measure the comparator and BENCHMARK.json bounds use. It
// is NaN when xs has fewer than two values or a zero median.
func Spread(xs []float64) float64 {
	q1, _, q3, ok := Quartiles(xs)
	med := Median(xs)
	if !ok || med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
