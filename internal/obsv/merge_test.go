package obsv

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRegistryMergeCounters verifies counters sum across registries.
func TestRegistryMergeCounters(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("ops_total", L("app", "httpd")...).Add(3)
	b.Counter("ops_total", L("app", "httpd")...).Add(4)
	b.Counter("ops_total", L("app", "sqldb")...).Inc()
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if got := a.Counter("ops_total", L("app", "httpd")...).Value(); got != 7 {
		t.Errorf("httpd counter = %v, want 7", got)
	}
	if got := a.Counter("ops_total", L("app", "sqldb")...).Value(); got != 1 {
		t.Errorf("sqldb counter = %v, want 1", got)
	}
}

// TestRegistryMergeGaugeLastWins verifies the gauge rule: the merged-in
// shard's value replaces the destination's, reproducing a serial run's final
// Set.
func TestRegistryMergeGaugeLastWins(t *testing.T) {
	a, b, c := NewRegistry(), NewRegistry(), NewRegistry()
	a.Gauge("depth").Set(1)
	b.Gauge("depth").Set(5)
	c.Gauge("depth").Set(2)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge b: %v", err)
	}
	if err := a.Merge(c); err != nil {
		t.Fatalf("Merge c: %v", err)
	}
	if got := a.Gauge("depth").Value(); got != 2 {
		t.Errorf("gauge = %v, want 2 (last merged shard)", got)
	}
}

// TestRegistryMergeHistograms verifies bucket-wise histogram addition
// including sum and count.
func TestRegistryMergeHistograms(t *testing.T) {
	bounds := []float64{1, 10}
	a, b := NewRegistry(), NewRegistry()
	ha := a.Histogram("lat", bounds)
	ha.Observe(0.5)
	ha.Observe(100)
	hb := b.Histogram("lat", bounds)
	hb.Observe(5)
	hb.Observe(0.25)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if got := histCount(ha); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := histSum(ha); got != 105.75 {
		t.Errorf("sum = %v, want 105.75", got)
	}
	_, cum, _, _ := ha.snapshot()
	want := []uint64{2, 3, 4} // ≤1: {0.5,0.25}; ≤10: +{5}; +Inf: +{100}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

// TestRegistryMergeEmptyAndSingle covers the degenerate shard shapes the
// engine produces constantly: empty shards and single-observation shards.
func TestRegistryMergeEmptyAndSingle(t *testing.T) {
	dst := NewRegistry()
	dst.Histogram("lat", LatencyBuckets).Observe(1)

	if err := dst.Merge(NewRegistry()); err != nil {
		t.Fatalf("merge empty registry: %v", err)
	}
	if err := dst.Merge(nil); err != nil {
		t.Fatalf("merge nil registry: %v", err)
	}
	empty := NewRegistry()
	empty.Histogram("lat", LatencyBuckets) // series exists, zero observations
	if err := dst.Merge(empty); err != nil {
		t.Fatalf("merge empty histogram: %v", err)
	}
	single := NewRegistry()
	single.Histogram("lat", LatencyBuckets).Observe(2)
	if err := dst.Merge(single); err != nil {
		t.Fatalf("merge single-sample histogram: %v", err)
	}
	h := dst.Histogram("lat", LatencyBuckets)
	if histCount(h) != 2 || histSum(h) != 3 {
		t.Errorf("after merges count=%d sum=%v, want 2 and 3", histCount(h), histSum(h))
	}
}

// TestRegistryMergeKindMismatch verifies a kind clash surfaces as an error,
// not a panic.
func TestRegistryMergeKindMismatch(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Inc()
	b.Gauge("x").Set(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging gauge into counter series succeeded, want error")
	}
	c := NewRegistry()
	c.Histogram("x", LatencyBuckets).Observe(1)
	if err := a.Merge(c); err == nil {
		t.Fatal("merging histogram into counter series succeeded, want error")
	}
}

// TestHistogramMergeBoundsMismatch verifies that histograms with different
// bucket bounds refuse to merge.
func TestHistogramMergeBoundsMismatch(t *testing.T) {
	a := newHistogram([]float64{1, 2})
	b := newHistogram([]float64{1, 3})
	b.Observe(1)
	if err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("merge with different bounds: err = %v, want bound mismatch", err)
	}
	c := newHistogram([]float64{1})
	c.Observe(1)
	if err := a.Merge(c); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("merge with different bucket count: err = %v, want count mismatch", err)
	}
}

// TestHistogramMergeSelf verifies self-merge is rejected (it would double
// every count) and registry self-merge likewise.
func TestHistogramMergeSelf(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(0.5)
	if err := h.Merge(h); err == nil {
		t.Error("histogram self-merge succeeded, want error")
	}
	r := NewRegistry()
	if err := r.Merge(r); err == nil {
		t.Error("registry self-merge succeeded, want error")
	}
}

// TestHistogramNaNGuards verifies NaN observations are dropped and NaN bounds
// are filtered at construction.
func TestHistogramNaNGuards(t *testing.T) {
	h := newHistogram([]float64{math.NaN(), 1, math.NaN()})
	if len(h.buckets) != 1 || h.buckets[0] != 1 {
		t.Fatalf("buckets = %v, want [1]", h.buckets)
	}
	h.Observe(math.NaN())
	if histCount(h) != 0 {
		t.Errorf("count after NaN observe = %d, want 0", histCount(h))
	}
	h.Observe(0.5)
	if histCount(h) != 1 || math.IsNaN(histSum(h)) {
		t.Errorf("count=%d sum=%v after one real observe", histCount(h), histSum(h))
	}
	all := newHistogram([]float64{math.NaN()})
	all.Observe(7)
	if histCount(all) != 1 {
		t.Errorf("all-NaN-bounds histogram count = %d, want 1 (+Inf bucket)", histCount(all))
	}
}

// TestRegistryMergeHelp verifies help text comes from the metric name
// alone: a catalogued metric merged into a fresh registry exports its
// # HELP line, and an uncatalogued one is exported without one.
func TestRegistryMergeHelp(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	b.Counter(MetricFailures).Inc()
	b.Counter("x_total").Inc()
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	var buf bytes.Buffer
	if err := a.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if want := "# HELP " + MetricFailures + " " + metricHelp[MetricFailures] + "\n"; !strings.Contains(out, want) {
		t.Errorf("missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "# HELP x_total") {
		t.Errorf("uncatalogued metric has help:\n%s", out)
	}
}

// TestRegistryMergeMatchesSerial is the semantic contract in miniature:
// folding per-shard registries in shard order must reproduce what one shared
// registry would have recorded serially.
func TestRegistryMergeMatchesSerial(t *testing.T) {
	type op struct {
		shard int
		v     float64
	}
	ops := []op{{0, 1}, {0, 3}, {1, 2}, {1, 7}, {2, 0.5}}

	serial := NewRegistry()
	shards := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
	for _, o := range ops {
		for _, r := range []*Registry{serial, shards[o.shard]} {
			r.Counter("n").Inc()
			r.Gauge("last").Set(o.v)
			r.Histogram("v", RetryBuckets).Observe(o.v)
		}
	}
	merged := NewRegistry()
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}
	var want, got bytes.Buffer
	if err := serial.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if err := merged.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("merged export differs from serial:\n--- serial\n%s--- merged\n%s", want.String(), got.String())
	}
}

// episodeAt builds a closed single-span episode for merge tests.
func episodeAt(id int, mechanism string) *Episode {
	return &Episode{
		ID:        id,
		Mechanism: mechanism,
		StartUS:   US(10 * time.Millisecond),
		EndUS:     US(20 * time.Millisecond),
		Outcome:   "recovered",
		Spans: []Span{{
			Kind:    SpanFailure,
			StartUS: US(10 * time.Millisecond),
			EndUS:   US(10 * time.Millisecond),
		}},
	}
}

// TestMergeEpisodes verifies that folding per-shard episode streams into one
// recorder with Append, shard by shard, concatenates them in shard order with
// 1..N renumbering, skips an empty shard, and does not mutate the inputs.
func TestMergeEpisodes(t *testing.T) {
	s0 := []*Episode{episodeAt(1, "a"), episodeAt(2, "b")}
	s1 := []*Episode{episodeAt(1, "c")}
	r := NewRecorder()
	for _, shard := range [][]*Episode{s0, nil, s1} {
		r.Append(shard...)
	}
	out := r.Episodes()
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	wantMech := []string{"a", "b", "c"}
	for i, e := range out {
		if e.ID != i+1 {
			t.Errorf("out[%d].ID = %d, want %d", i, e.ID, i+1)
		}
		if e.Mechanism != wantMech[i] {
			t.Errorf("out[%d].Mechanism = %q, want %q", i, e.Mechanism, wantMech[i])
		}
	}
	if s1[0].ID != 1 {
		t.Errorf("input episode mutated: ID = %d, want 1", s1[0].ID)
	}
	empty := NewRecorder()
	empty.Append(nil...)
	if got := empty.Episodes(); got != nil {
		t.Errorf("appending only empty shards left %v, want nil", got)
	}
}

// TestRecorderAppend verifies adopted episodes continue the recorder's own ID
// sequence and nil episodes are skipped.
func TestRecorderAppend(t *testing.T) {
	r := NewRecorder()
	r.Begin(0, "op", "mech")
	r.End(time.Millisecond, "recovered", "retry")
	r.Append(episodeAt(9, "x"), nil, episodeAt(1, "y"))
	eps := r.Episodes()
	if len(eps) != 3 {
		t.Fatalf("len = %d, want 3", len(eps))
	}
	for i, e := range eps {
		if e.ID != i+1 {
			t.Errorf("episodes[%d].ID = %d, want %d", i, e.ID, i+1)
		}
	}
	var nilRec *Recorder
	nilRec.Append(episodeAt(1, "z")) // must not panic
}
