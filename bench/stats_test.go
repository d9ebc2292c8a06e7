package bench

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// definition the spread check uses.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		median     float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 3, 4.5},
		{[]float64{2.5, 9, 1, 7, 3, 8, 4, 6, 5, 10}, 5.5, 2.875, 5.5, 8.25},
		{[]float64{1, 1, 1, 1}, 1, 1, 1, 1},
	}
	for _, c := range cases {
		if got := Median(c.xs); got != c.median {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.median)
		}
		q1, q2, q3, ok := Quartiles(c.xs)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
}

func TestStatsEdgeCases(t *testing.T) {
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	if _, _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("Quartiles of one value should not be ok")
	}
	if !math.IsNaN(Spread([]float64{0, 0, 0})) {
		t.Error("Spread with a zero median should be NaN")
	}
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median sorted its input in place")
	}
	// IQR 2.875..8.25 over median 5.5.
	if got, want := Spread([]float64{2.5, 9, 1, 7, 3, 8, 4, 6, 5, 10}), (8.25-2.875)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}
