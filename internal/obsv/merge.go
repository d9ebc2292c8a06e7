package obsv

import (
	"fmt"
)

// This file is the observability half of the parallel experiment engine
// (internal/parallel): each shard writes into its own private Registry and
// Recorder, and the engine folds the shards back together with Merge and
// Recorder.Append in shard order. Because every merge rule below is
// commutative-with-order-fixed (counters sum, histogram buckets sum, gauges
// take the last shard's word, episodes renumber in shard order), the merged
// result depends only on the shard decomposition — never on worker count or
// completion order.

// Merge folds src's series into r: counters sum, histograms merge
// bucket-wise, and gauges take src's value (last-merged-shard wins — the
// same answer a serial run's final Set would leave). Merging is an error
// when the same (name, labels) series exists in both registries with
// different kinds, or when two histograms disagree about bucket bounds —
// both are instrumentation bugs, not runtime conditions, but during a merge
// they are reported rather than panicking so a CLI can surface them. A nil
// src (or nil r) merges nothing.
func (r *Registry) Merge(src *Registry) error {
	if r == nil || src == nil {
		return nil
	}
	// Snapshot src's sorted series outside r's lock; the two registries are
	// distinct by contract (merging a registry into itself would double its
	// counters, so it is rejected).
	if r == src {
		return fmt.Errorf("obsv: cannot merge a registry into itself")
	}
	for _, s := range src.sortedSeries() {
		if err := r.mergeSeries(s); err != nil {
			return err
		}
	}
	return nil
}

// mergeSeries folds one source series into r, converting the lookup methods'
// kind-mismatch panics into errors — during a merge a clash between two
// registries' schemas is a reportable condition, not a crash.
func (r *Registry) mergeSeries(s *series) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("obsv: merge %s: %v", seriesKey(s.name, s.labels), v)
		}
	}()
	switch s.kind {
	case kindCounter:
		r.Counter(s.name, s.labels...).Add(s.c.Value())
	case kindGauge:
		r.Gauge(s.name, s.labels...).Set(s.g.Value())
	case kindHistogram:
		bounds, _, _, _ := s.h.snapshot()
		if err := r.Histogram(s.name, bounds, s.labels...).Merge(s.h); err != nil {
			return fmt.Errorf("obsv: merge %s: %w", seriesKey(s.name, s.labels), err)
		}
	}
	return nil
}

// Merge folds src's observations into h: per-bucket counts, the observation
// sum, and the total all add. The two histograms must share bucket bounds —
// merging histograms with different bounds would silently redistribute
// observations, so it is an error. Merging an empty histogram (or a nil src)
// is a no-op; merging h into itself is rejected.
func (h *Histogram) Merge(src *Histogram) error {
	if h == nil || src == nil {
		return nil
	}
	if h == src {
		return fmt.Errorf("cannot merge a histogram into itself")
	}
	src.mu.Lock()
	bounds := append([]float64(nil), src.buckets...)
	counts := append([]uint64(nil), src.counts...)
	sum, total := src.sum, src.total
	src.mu.Unlock()
	if total == 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(bounds) != len(h.buckets) {
		return fmt.Errorf("bucket count mismatch: %d vs %d", len(h.buckets), len(bounds))
	}
	for i, b := range bounds {
		if h.buckets[i] != b {
			return fmt.Errorf("bucket bound %d mismatch: %v vs %v", i, h.buckets[i], b)
		}
	}
	for i, c := range counts {
		h.counts[i] += c
	}
	h.sum += sum
	h.total += total
	return nil
}

// Append adopts already-closed episodes into the recorder, renumbering them
// to continue its own sequence — the reduction step that folds per-shard
// recorders into the run-level one. Nil-safe.
func (r *Recorder) Append(eps ...*Episode) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range eps {
		if e == nil {
			continue
		}
		r.nextID++
		if e.ID != r.nextID {
			c := *e
			c.ID = r.nextID
			e = &c
		}
		r.episodes = append(r.episodes, e)
	}
}
