package obsv

import (
	"testing"
	"time"
)

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value = %v, want 3.5", got)
	}
}

func TestGaugeUpDown(t *testing.T) {
	var g Gauge
	g.Set(4)
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("Value = %v, want 2.5", got)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 1, 10}) // dup 1 must dedupe
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	bounds, cum, sum, total := h.snapshot()
	wantBounds := []float64{1, 5, 10}
	if len(bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
	}
	for i, b := range wantBounds {
		if bounds[i] != b {
			t.Fatalf("bounds = %v, want %v", bounds, wantBounds)
		}
	}
	// Cumulative: ≤1 → 2, ≤5 → 3, ≤10 → 4, +Inf → 5.
	wantCum := []uint64{2, 3, 4, 5}
	for i, c := range wantCum {
		if cum[i] != c {
			t.Fatalf("cumulative = %v, want %v", cum, wantCum)
		}
	}
	if total != 5 || sum != 111.5 {
		t.Fatalf("total=%d sum=%v, want 5 and 111.5", total, sum)
	}
	h.ObserveDuration(1500 * time.Millisecond)
	if histCount(h) != 6 {
		t.Fatalf("Count = %d, want 6", histCount(h))
	}
}

func TestRegistryLookupAndLabels(t *testing.T) {
	r := NewRegistry()
	// Same series regardless of label argument order.
	a := r.Counter("x_total", L("b", "2", "a", "1")...)
	b := r.Counter("x_total", Label{Name: "a", Value: "1"}, Label{Name: "b", Value: "2"})
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("label order created distinct series")
	}
	if seriesLen(r) != 1 {
		t.Fatalf("Len = %d, want 1", seriesLen(r))
	}
	// Different labels → different series.
	r.Counter("x_total", L("a", "other")...).Inc()
	if seriesLen(r) != 2 {
		t.Fatalf("Len = %d, want 2", seriesLen(r))
	}
	// Kind mismatch panics.
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", L("a", "1", "b", "2")...)
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", LatencyBuckets).Observe(1)
	if seriesLen(r) != 0 {
		t.Fatal("nil registry reported series")
	}
	if err := r.WritePrometheus(discard{}); err != nil {
		t.Fatal(err)
	}
}

// discard is an io.Writer that drops everything.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestRequestLatencyBuckets is the regression test for the serving tier's
// bucket preset: strictly increasing bounds spanning sub-millisecond hits
// through multi-second reboot stalls, and representative serve-mode
// latencies must spread across buckets instead of collapsing into the first
// bucket the way they would under the episode-scale LatencyBuckets.
func TestRequestLatencyBuckets(t *testing.T) {
	if RequestLatencyBuckets[0] >= 0.001 {
		t.Fatalf("first bound %v is not sub-millisecond", RequestLatencyBuckets[0])
	}
	last := RequestLatencyBuckets[len(RequestLatencyBuckets)-1]
	if last < 1 {
		t.Fatalf("last bound %v does not reach seconds scale", last)
	}
	for i := 1; i < len(RequestLatencyBuckets); i++ {
		if RequestLatencyBuckets[i] <= RequestLatencyBuckets[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, RequestLatencyBuckets)
		}
	}
	// The serving tier's default service mix: each latency tier must land in
	// its own bucket so the histogram actually resolves the distribution.
	h := newHistogram(RequestLatencyBuckets)
	mix := []time.Duration{
		300 * time.Microsecond, 900 * time.Microsecond,
		3 * time.Millisecond, 12 * time.Millisecond, 80 * time.Millisecond,
	}
	for _, d := range mix {
		h.ObserveDuration(d)
	}
	_, cum, _, total := h.snapshot()
	if total != uint64(len(mix)) {
		t.Fatalf("total = %d, want %d", total, len(mix))
	}
	occupied := 0
	prev := uint64(0)
	for _, c := range cum {
		if c > prev {
			occupied++
		}
		prev = c
	}
	if occupied < len(mix) {
		t.Errorf("serve-mode mix occupies %d buckets, want %d distinct", occupied, len(mix))
	}
	// Under the episode-scale preset the same mix collapses: the first two
	// tiers share the 1ms bucket — exactly the resolution loss the request
	// preset exists to avoid.
	eh := newHistogram(LatencyBuckets)
	for _, d := range mix {
		eh.ObserveDuration(d)
	}
	_, ecum, _, _ := eh.snapshot()
	if ecum[0] < 2 {
		t.Fatalf("expected episode buckets to collapse sub-ms tiers, got %v", ecum)
	}
}

// histCount reads a histogram's observation count.
func histCount(h *Histogram) uint64 {
	_, _, _, total := h.snapshot()
	return total
}

// histSum reads a histogram's observation sum.
func histSum(h *Histogram) float64 {
	_, _, sum, _ := h.snapshot()
	return sum
}

// seriesLen counts a registry's live series (0 for a nil registry).
func seriesLen(r *Registry) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.series)
}
