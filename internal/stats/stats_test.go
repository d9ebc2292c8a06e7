package stats

import (
	"math"
	"strings"
	"testing"
)

func TestProportion(t *testing.T) {
	p := Proportion{Hits: 36, N: 50}
	if math.Abs(p.Value()-0.72) > 1e-9 {
		t.Errorf("Value = %v", p.Value())
	}
	if p.Percent() != "72%" {
		t.Errorf("Percent = %q", p.Percent())
	}
	zero := Proportion{}
	if zero.Value() != 0 {
		t.Error("empty proportion should be 0")
	}
}

func TestChiSquareIndependence(t *testing.T) {
	// Perfectly proportional table: chi2 ~ 0.
	chi2, dof := ChiSquare([][]float64{{10, 20}, {20, 40}})
	if chi2 > 1e-9 {
		t.Errorf("proportional table chi2 = %v", chi2)
	}
	if dof != 1 {
		t.Errorf("dof = %d", dof)
	}
	// Strong association: chi2 large.
	chi2, _ = ChiSquare([][]float64{{30, 0}, {0, 30}})
	if chi2 < 30 {
		t.Errorf("diagonal table chi2 = %v, want large", chi2)
	}
	// Degenerate inputs.
	if c, d := ChiSquare(nil); c != 0 || d != 0 {
		t.Error("nil table should be zero")
	}
	if c, d := ChiSquare([][]float64{{0, 0}}); c != 0 || d != 0 {
		t.Error("zero table should be zero")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"class", "count"}}
	tbl.Add("environment-independent", "36")
	tbl.Add("edt", "7")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "class") || !strings.Contains(lines[2], "36") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
	// Columns align: header and separator equal width.
	if len(lines[1]) < len("class")+len("count") {
		t.Errorf("separator too short: %q", lines[1])
	}
}

func TestStackedBars(t *testing.T) {
	out := StackedBars(
		[]string{"1.3.0", "1.3.4"},
		[]StackedSeries{
			{Label: "EI", Glyph: '#', Counts: []int{4, 10}},
			{Label: "EDT", Glyph: '+', Counts: []int{1, 2}},
		})
	if !strings.Contains(out, "####") {
		t.Errorf("missing EI bar:\n%s", out)
	}
	if !strings.Contains(out, "++") {
		t.Errorf("missing EDT bar:\n%s", out)
	}
	if !strings.Contains(out, "#=EI") || !strings.Contains(out, "+=EDT") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, " 12\n") {
		t.Errorf("missing bucket total:\n%s", out)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose: Quantile must not mutate
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-sample quantile = %v, want 7", got)
	}
}

// TestQuantileEdgeCases pins the degenerate-input contract the parallel
// engine's merged summaries rely on: empty and all-NaN samples return 0, NaN
// samples are ignored rather than poisoning the interpolation, and a NaN q
// returns 0 instead of corrupting an index computation.
func TestQuantileEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty slice", []float64{}, 0.5, 0},
		{"nil slice", nil, 0, 0},
		{"all NaN", []float64{nan, nan}, 0.5, 0},
		{"NaN ignored low", []float64{nan, 1, 3}, 0, 1},
		{"NaN ignored high", []float64{3, nan, 1}, 1, 3},
		{"NaN ignored median", []float64{nan, 1, 3, nan}, 0.5, 2},
		{"single after NaN filter", []float64{nan, 5}, 0.75, 5},
		{"NaN q", []float64{1, 2, 3}, nan, 0},
		{"NaN q empty", nil, nan, 0},
		{"negative infinity sample", []float64{math.Inf(-1), 0}, 0, math.Inf(-1)},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.q); got != c.want && !(math.IsInf(c.want, -1) && math.IsInf(got, -1)) {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
	// A NaN result must never escape: sweep q over a NaN-laced sample.
	xs := []float64{nan, 2, nan, 8, 5}
	for q := -0.5; q <= 1.5; q += 0.125 {
		if got := Quantile(xs, q); math.IsNaN(got) {
			t.Errorf("Quantile(%v, %v) = NaN", xs, q)
		}
	}
}
