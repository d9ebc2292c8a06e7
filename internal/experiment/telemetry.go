package experiment

import (
	"io"

	"faultstudy/internal/obsv"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
)

// Telemetry bundles the observability sinks one experiment run writes into: a
// metrics registry and an episode recorder. A nil *Telemetry disables
// instrumentation everywhere it is accepted — the zero-cost-off contract.
type Telemetry struct {
	// Registry receives metrics (counters, gauges, histograms).
	Registry *obsv.Registry
	// Recorder receives fault episodes (the trace layer).
	Recorder *obsv.Recorder
}

// NewTelemetry builds an empty telemetry sink pair.
func NewTelemetry() *Telemetry {
	return &Telemetry{Registry: obsv.NewRegistry(), Recorder: obsv.NewRecorder()}
}

// ClassFor resolves a mechanism key to its EI/EDN/EDT short class name via
// the full mechanism catalogue, or "?" for keys outside it (the supervisor's
// pseudo-mechanisms).
func ClassFor(mechanism string) string {
	if m, ok := CorpusRegistry().Lookup(mechanism); ok {
		return m.Class().Short()
	}
	return "?"
}

// observer builds a bridge observer writing into the telemetry sinks under
// the given identity, or nil when telemetry is disabled.
func (t *Telemetry) observer(ctx obsv.Context) *obsv.Observer {
	if t == nil {
		return nil
	}
	return obsv.NewObserver(t.Registry, t.Recorder, ctx)
}

// workloadHook returns the workload-generation hook, or nil when telemetry is
// disabled (a typed-nil Hook would defeat the generators' nil checks).
func (t *Telemetry) workloadHook() *obsv.WorkloadHook {
	if t == nil {
		return nil
	}
	return &obsv.WorkloadHook{Registry: t.Registry}
}

// Episodes returns the recorded fault episodes (nil when disabled).
func (t *Telemetry) Episodes() []*obsv.Episode {
	if t == nil {
		return nil
	}
	return t.Recorder.Episodes()
}

// Summary renders the per-class telemetry table over the recorded episodes.
func (t *Telemetry) Summary() string {
	return obsv.RenderSummary(obsv.Summarize(t.Episodes()))
}

// WriteTrace writes the recorded episodes as JSONL.
func (t *Telemetry) WriteTrace(w io.Writer) error {
	return obsv.WriteJSONL(w, t.Episodes())
}

// WriteTimeline writes the human-readable episode timelines.
func (t *Telemetry) WriteTimeline(w io.Writer) error {
	return obsv.WriteTimeline(w, t.Episodes())
}

// WritePrometheus writes the metrics registry in the Prometheus text format.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.Registry.WritePrometheus(w)
}

// superviseConfig returns cfg with its trace hook chained through an observer
// for the given identity; with telemetry disabled cfg is returned unchanged.
// The returned observer is nil exactly when telemetry is disabled.
func (t *Telemetry) superviseConfig(cfg supervise.Config, ctx obsv.Context) (supervise.Config, *obsv.Observer) {
	if t == nil {
		return cfg, nil
	}
	obs := t.observer(ctx)
	cfg.Trace = obs.Trace(cfg.Trace)
	return cfg, obs
}

// Merge folds per-shard telemetries into t in argument order — the parallel
// engine's reduction step. Counters and histograms merge additively, gauges
// take the last shard's value, and episodes are renumbered to continue t's
// sequence, so merging shards in shard order reproduces exactly what a
// serial run sharing one telemetry would have recorded. Nil receiver and nil
// shards are no-ops.
func (t *Telemetry) Merge(shards ...*Telemetry) error {
	if t == nil {
		return nil
	}
	for _, s := range shards {
		if s == nil {
			continue
		}
		if err := t.Registry.Merge(s.Registry); err != nil {
			return err
		}
		t.Recorder.Append(s.Recorder.Episodes()...)
	}
	return nil
}

// soakContext is the observer identity for one soak application: class labels
// come from the mechanism catalogue because a soak run hosts several
// mechanisms of different classes at once.
func soakContext(app taxonomy.Application) obsv.Context {
	return obsv.Context{App: app.String(), ClassFor: ClassFor}
}
