package obsv

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	// Name is the label name (a Prometheus-legal identifier).
	Name string
	// Value is the label value.
	Value string
}

// L builds a label list from alternating name, value strings. Odd trailing
// arguments are dropped; the list is sorted by name so series identity does
// not depend on argument order.
func L(pairs ...string) []Label {
	out := make([]Label, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	sortLabels(out)
	return out
}

// compareLabels orders labels by name, then value (for pathological
// duplicates).
func compareLabels(a, b Label) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

// sortLabels orders labels by compareLabels.
func sortLabels(ls []Label) { slices.SortFunc(ls, compareLabels) }

// labelKey serializes a sorted label list into a map key.
func labelKey(ls []Label) string { return string(appendLabelKey(nil, ls)) }

// appendLabelKey appends the serialized label list to b: name=value pairs,
// comma-separated, values escaped as in the Prometheus text format.
func appendLabelKey(b []byte, ls []Label) []byte {
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, '=')
		b = appendEscapedLabelValue(b, l.Value)
	}
	return b
}

// escapeLabelValue escapes a label value for the Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	return string(appendEscapedLabelValue(nil, v))
}

// appendEscapedLabelValue appends v to b with backslash, newline and double
// quote escaped.
func appendEscapedLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		case '"':
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter; negative deltas are ignored (counters only go
// up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates observations into fixed, cumulative buckets, the way
// Prometheus histograms do: Counts[i] counts observations ≤ Buckets[i], and
// an implicit +Inf bucket catches the rest.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // sorted upper bounds
	counts  []uint64  // per-bucket (non-cumulative) counts, +Inf last
	sum     float64
	total   uint64
}

// newHistogram builds a histogram over the given (sorted, deduplicated)
// upper bounds. NaN bounds are dropped — they compare false against every
// observation and would leave permanently-dead buckets; a histogram with no
// finite bounds degenerates to a single +Inf bucket, which is still a valid
// count+sum series.
func newHistogram(buckets []float64) *Histogram {
	bs := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if !math.IsNaN(b) {
			bs = append(bs, b)
		}
	}
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{buckets: dedup, counts: make([]uint64, len(dedup)+1)}
}

// Observe records one observation. NaN observations are dropped: a NaN
// would fail every bucket comparison, land in +Inf, and poison the sum —
// turning one bad instrumentation site into a corrupt export — so the guard
// lives here, once, instead of at every call site.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.total++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.buckets)]++ // +Inf
}

// ObserveDuration records a duration observation in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot returns the bucket bounds with cumulative counts, plus sum and
// total, under the lock.
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.buckets...)
	cumulative = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cumulative[i] = run
	}
	return bounds, cumulative, h.sum, h.total
}

// LatencyBuckets are the fixed upper bounds, in seconds, for recovery and
// episode latencies: sub-second retries through hour-scale backoff walks.
// Fixed buckets keep longitudinal data comparable across runs — the "Faults
// in Linux" lesson that fault data is only useful when schemas are stable.
var LatencyBuckets = []float64{0.001, 0.01, 0.1, 1, 5, 15, 60, 300, 900, 3600}

// RequestLatencyBuckets are the fixed upper bounds, in seconds, for
// per-request serving latencies: sub-millisecond cache hits through the
// multi-second stalls a request rides out while its component reboots.
// LatencyBuckets starts at 1ms and is tuned for episode durations — request
// latencies cluster two orders of magnitude lower, so they get their own
// preset rather than collapsing into LatencyBuckets' first bucket.
var RequestLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// RetryBuckets are the fixed upper bounds for retries-per-recovery counts:
// the escalation ladder spends at most RungAttempts×4 attempts before the
// degraded rung, so the top bucket is comfortably above a full ladder walk.
var RetryBuckets = []float64{1, 2, 3, 5, 8, 13, 21}

// metricKind discriminates the series types held by a Registry.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

// series is one (name, labels) metric instance.
type series struct {
	name   string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metric series. The zero value is not usable; call
// NewRegistry. All lookup methods create the series on first use, so
// instrumentation sites need no registration ceremony. A nil *Registry is
// legal everywhere: the lookup methods return live but unexported-from-export
// metric objects, making disabled instrumentation cost one branch and one
// allocation at worst.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// seriesKey builds the registry key for a (name, labels) pair.
func seriesKey(name string, labels []Label) string {
	return string(appendSeriesKey(nil, name, labels))
}

// appendSeriesKey appends the registry key for a (name, labels) pair to b.
func appendSeriesKey(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	b = append(b, '{')
	b = appendLabelKey(b, labels)
	return append(b, '}')
}

// lookup returns (creating if needed) the series for name+labels, verifying
// the kind matches. Mismatched kinds panic: that is a programming error at
// an instrumentation site, not a runtime condition. Labels that arrive
// sorted (everything built with L) are keyed in place in a stack buffer, so
// finding an existing series allocates nothing; the labels are copied only
// when a new series is stored.
func (r *Registry) lookup(name string, labels []Label, kind metricKind, mk func() *series) *series {
	ls := labels
	if !slices.IsSortedFunc(ls, compareLabels) {
		ls = slices.Clone(labels)
		sortLabels(ls)
	}
	var stack [128]byte
	key := appendSeriesKey(stack[:0], name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[string(key)]
	if !ok {
		s = mk()
		s.name, s.labels, s.kind = name, append([]Label(nil), ls...), kind
		r.series[string(key)] = s
	}
	if s.kind != kind {
		panic(fmt.Sprintf("obsv: metric %q registered with two kinds", name))
	}
	return s
}

// Counter returns the counter series for name+labels, creating it on first
// use. Safe on a nil registry (returns a detached counter).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, labels, kindCounter, func() *series { return &series{c: &Counter{}} }).c
}

// Gauge returns the gauge series for name+labels, creating it on first use.
// Safe on a nil registry (returns a detached gauge).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, labels, kindGauge, func() *series { return &series{g: &Gauge{}} }).g
}

// Histogram returns the histogram series for name+labels with the given
// fixed buckets, creating it on first use; later calls for the same series
// ignore the bucket argument. Safe on a nil registry (returns a detached
// histogram).
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(buckets)
	}
	return r.lookup(name, labels, kindHistogram, func() *series { return &series{h: newHistogram(buckets)} }).h
}

// sortedSeries returns every series ordered by name then label key — the
// stable iteration order both exporters rely on.
func (r *Registry) sortedSeries() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelKey(out[i].labels) < labelKey(out[j].labels)
	})
	return out
}
