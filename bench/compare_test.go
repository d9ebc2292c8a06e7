package bench

import (
	"strings"
	"testing"
)

// series returns n copies of v with a small alternating wobble.
func series(n int, v, wobble float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
		if i%2 == 1 {
			out[i] += wobble
		}
	}
	return out
}

func TestCompareMetricVerdicts(t *testing.T) {
	bound := 0.10
	lower := Bound{Unit: "s", Better: "lower", Bound: &bound}
	higher := Bound{Unit: "1/s", Better: "higher", Bound: &bound}
	layer := Bound{Unit: "s", Better: "lower"}
	cases := []struct {
		name string
		b    Bound
		p, c []float64
		want string
	}{
		{"same", lower, series(10, 1, 0.01), series(10, 1, 0.01), "unchanged"},
		{"faster beyond the parent's spread", lower, series(10, 1, 0.01), series(10, 0.9, 0.01), "improved"},
		{"higher is better", higher, series(10, 100, 1), series(10, 120, 1), "improved"},
		{"slower beyond the bound", lower, series(10, 1, 0.01), series(10, 1.2, 0.01), "regressed"},
		{"fewer units per second beyond the bound", higher, series(10, 100, 1), series(10, 80, 1), "regressed"},
		{"slower within the bound", lower, series(10, 1, 0.01), series(10, 1.05, 0.01), "unchanged"},
		{"spread wider than the bound", lower, series(10, 1, 0.5), series(10, 1.02, 0.5), "unresolved"},
		{"wide spread but every change run better", lower, series(10, 1, 0.3), series(10, 0.5, 0.3), "improved"},
		{"per-layer metric improved", layer, series(10, 1, 0.01), series(10, 0.5, 0.01), "improved"},
		{"per-layer metric worse has no verdict", layer, series(10, 1, 0.01), series(10, 2, 0.01), "-"},
	}
	for _, c := range cases {
		row := compareMetric("m", c.b, c.p, c.c)
		if row.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (row %s)", c.name, row.Verdict, c.want, row)
		}
	}
}

// A gain needs 9 of 10 pair wins even when the medians differ by more than
// the spread.
func TestCompareNeedsNineInTenWins(t *testing.T) {
	bound := 0.5
	b := Bound{Unit: "s", Better: "lower", Bound: &bound}
	p := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	c := []float64{0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.2, 1.2}
	if row := compareMetric("m", b, p, c); row.Wins != 8 || row.Verdict != "unchanged" {
		t.Errorf("8/10 wins: %s", row)
	}
	c[8] = 0.8
	if row := compareMetric("m", b, p, c); row.Wins != 9 || row.Verdict != "improved" {
		t.Errorf("9/10 wins: %s", row)
	}
}

func TestCompareRunsAndFailures(t *testing.T) {
	bound := 0.1
	bounds := map[string]Bound{"units_per_s": {Unit: "1/s", Better: "higher", Bound: &bound}}
	run := func(v float64, failed int) Result {
		return Result{Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]Value{"serve/units_per_s": {Value: v, Unit: "1/s"}}}
	}
	var p, c []Result
	for i := 0; i < MinPairs; i++ {
		p, c = append(p, run(100, 0)), append(c, run(100, 0))
	}
	if _, err := Compare(p[:MinPairs-1], c[:MinPairs-1], bounds); err == nil {
		t.Error("fewer than MinPairs pairs accepted")
	}
	rows, err := Compare(p, c, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Key != "serve/units_per_s" || rows[0].Verdict != "unchanged" || rows[1].Verdict != "unchanged" {
		t.Fatalf("rows = %v", rows)
	}
	if !strings.Contains(rows[0].String(), "of 100 1/s") {
		t.Errorf("row does not state its base: %s", rows[0])
	}
	c[3] = run(100, 1)
	rows, err = Compare(p, c, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Key != "failed" || rows[1].Verdict != "regressed" {
		t.Errorf("more failures not a regression: %s", rows[1])
	}
	if _, err := Compare(p, c, map[string]Bound{}); err == nil {
		t.Error("metric missing from the bounds accepted")
	}
}

func TestReadResultTakesTheLastLine(t *testing.T) {
	out := "labbench host: nproc=2\nserve: ...\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"cpu_s":{"value":0.5,"unit":"s"}}}` + "\n"
	res, err := ReadResult(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Metrics["cpu_s"].Value != 0.5 {
		t.Errorf("result = %+v", res)
	}
	if _, err := ReadResult(strings.NewReader("no result here\n")); err == nil {
		t.Error("output without a result line accepted")
	}
}
