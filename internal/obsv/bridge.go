package obsv

import (
	"time"

	"faultstudy/internal/recovery"
)

// Metric names emitted by the bridges. The full catalogue — label sets,
// bucket bounds, semantics — is documented in OBSERVABILITY.md; these
// constants are the single point of truth the docs are checked against.
const (
	// MetricEpisodes counts closed fault episodes by outcome.
	MetricEpisodes = "faultstudy_episodes_total"
	// MetricFailures counts every observed failure, initial and retried.
	MetricFailures = "faultstudy_failures_total"
	// MetricRecoveryAttempts counts recovery actions applied, by ladder rung
	// (or one-shot strategy).
	MetricRecoveryAttempts = "faultstudy_recovery_attempts_total"
	// MetricRecoveries counts retries that served the failed operation.
	MetricRecoveries = "faultstudy_recoveries_total"
	// MetricEscalations counts escalation-ladder transitions by target rung.
	MetricEscalations = "faultstudy_escalations_total"
	// MetricBreakerOpens counts circuit breakers opening.
	MetricBreakerOpens = "faultstudy_breaker_opens_total"
	// MetricFastFails counts failures declined by an already-open breaker.
	MetricFastFails = "faultstudy_fast_fails_total"
	// MetricWatchdogTimeouts counts hangs the watchdog converted to failures.
	MetricWatchdogTimeouts = "faultstudy_watchdog_timeouts_total"
	// MetricBackoffSeconds accumulates virtual time slept in backoff.
	MetricBackoffSeconds = "faultstudy_backoff_seconds_total"
	// MetricCheckpoints counts application state snapshots taken.
	MetricCheckpoints = "faultstudy_checkpoints_total"
	// MetricShedOps counts write operations shed in degraded mode.
	MetricShedOps = "faultstudy_shed_ops_total"
	// MetricDegraded is 1 while the supervised service is degraded, else 0.
	MetricDegraded = "faultstudy_degraded"
	// MetricEpisodeSeconds is the episode-duration histogram (LatencyBuckets).
	MetricEpisodeSeconds = "faultstudy_episode_seconds"
	// MetricRetriesPerRecovery is the retries-per-served-episode histogram
	// (RetryBuckets).
	MetricRetriesPerRecovery = "faultstudy_retries_per_recovery"
	// MetricWorkloadOps counts generated workload items by stream and
	// category.
	MetricWorkloadOps = "faultstudy_workload_ops_total"
	// MetricResilURLs counts chaos-targeted URLs in the RESIL sweep by final
	// verdict (recovered or lost).
	MetricResilURLs = "faultstudy_resil_urls_total"
	// MetricResilPages counts crawled pages in the RESIL sweep by result
	// (fetched, non2xx, gap).
	MetricResilPages = "faultstudy_resil_pages_total"
	// MetricResilRetries counts resilient-client retries spent in the sweep.
	MetricResilRetries = "faultstudy_resil_retries_total"
	// MetricResilHedges counts hedged re-attempts after slow failures.
	MetricResilHedges = "faultstudy_resil_hedges_total"
	// MetricResilFastFails counts requests declined by an open host breaker.
	MetricResilFastFails = "faultstudy_resil_fast_fails_total"
	// MetricResilBudgetDenied counts retries refused by a drained budget.
	MetricResilBudgetDenied = "faultstudy_resil_budget_denied_total"
	// MetricResilTruncations counts Content-Length truncation detections.
	MetricResilTruncations = "faultstudy_resil_truncations_total"
	// MetricResilMTTRSeconds is the per-URL time-to-repair histogram
	// (LatencyBuckets): first injected failure to first clean fetch.
	MetricResilMTTRSeconds = "faultstudy_resil_mttr_seconds"
)

// metricHelp is the exporter's help string for every metric the bridges and
// the DURABLE sweep (internal/experiment's MetricDurable* names) emit,
// written as # HELP by WritePrometheus. A metric not named here is exported
// without one.
var metricHelp = map[string]string{
	MetricEpisodes:                           "Fault episodes closed, by app, class and outcome.",
	MetricFailures:                           "Observed operation failures, initial and retried.",
	MetricRecoveryAttempts:                   "Recovery actions applied, by ladder rung or strategy.",
	MetricRecoveries:                         "Recovery retries that served the failed operation.",
	MetricEscalations:                        "Escalation-ladder transitions, by target rung.",
	MetricBreakerOpens:                       "Per-mechanism circuit breakers opening.",
	MetricFastFails:                          "Failures declined by an already-open breaker.",
	MetricWatchdogTimeouts:                   "Hangs the watchdog converted into failures.",
	MetricBackoffSeconds:                     "Virtual seconds slept in recovery backoff.",
	MetricCheckpoints:                        "Application state snapshots taken.",
	MetricShedOps:                            "Write operations shed in degraded mode.",
	MetricDegraded:                           "1 while the service is in degraded mode, else 0.",
	MetricEpisodeSeconds:                     "Episode duration from dispatch to verdict, virtual seconds.",
	MetricRetriesPerRecovery:                 "Recovery retries spent per served episode.",
	MetricWorkloadOps:                        "Workload items generated, by stream and category.",
	MetricResilURLs:                          "Chaos-targeted URLs, by policy, fault, class and verdict.",
	MetricResilPages:                         "RESIL crawl pages, by policy, fault and result.",
	MetricResilRetries:                       "Resilient-client retries spent, by policy and class.",
	MetricResilHedges:                        "Hedged re-attempts after slow failures, by policy and class.",
	MetricResilFastFails:                     "Requests declined by an open host breaker, by policy and class.",
	MetricResilBudgetDenied:                  "Retries refused by a drained retry budget, by policy and class.",
	MetricResilTruncations:                   "Content-Length truncation detections, by policy and class.",
	MetricResilMTTRSeconds:                   "Per-URL repair time: first injected failure to first clean fetch.",
	"faultstudy_durable_episodes_total":      "Durable-store fault episodes, by arm, class and outcome.",
	"faultstudy_durable_acked_lost_total":    "Acknowledged records silently missing after recovery.",
	"faultstudy_durable_detected_loss_total": "Acknowledged records lost to detected, reported damage.",
	"faultstudy_durable_repairs_total":       "Tail truncations performed over damaged log bytes.",
	"faultstudy_durable_mttr_seconds":        "Per-episode store repair time: detection to recovered and writable.",
}

// Observer adapts the recovery trace-event stream into recorder episodes and
// registry metrics. One Observer instruments one run — a supervised run or
// one strategy's run under recovery.Manager; build it with NewObserver, point
// the run's trace hook at Trace(nil), and read the episodes and metrics
// afterwards. Both the registry and the recorder may be nil — a nil sink
// simply receives nothing, so callers can ask for metrics without traces or
// vice versa.
type Observer struct {
	reg *Registry
	rec *Recorder
	ctx Context
	// pending holds watchdog spans charged before the failure that opens the
	// episode was classified (chargeHang fires EventWatchdog first); they are
	// attached as the episode's opening spans.
	pending []Span
}

// NewObserver builds an observer writing to the given sinks under the given
// identity context. The context's App/FaultID/Class label every episode and
// metric the observer emits; each run builds its own observer.
func NewObserver(reg *Registry, rec *Recorder, ctx Context) *Observer {
	rec.SetContext(ctx)
	return &Observer{reg: reg, rec: rec, ctx: ctx}
}

// class resolves the class label for a mechanism under the current context.
func (o *Observer) class(mechanism string) string {
	if o.ctx.Class != "" {
		return o.ctx.Class
	}
	if o.ctx.ClassFor != nil {
		if c := o.ctx.ClassFor(mechanism); c != "" {
			return c
		}
	}
	return "?"
}

// errText renders an error for span notes ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Trace returns a recovery trace hook feeding this observer — point
// supervise.Config.Trace or recovery.Policy.Trace at it. When next is
// non-nil every event is forwarded to it afterwards, so the observer
// composes with logging hooks.
func (o *Observer) Trace(next func(recovery.Event)) func(recovery.Event) {
	return func(ev recovery.Event) {
		o.observe(ev)
		if next != nil {
			next(ev)
		}
	}
}

// observe folds one recovery event into the recorder and the registry. A
// strategy run's events are labelled with the strategy in place of a ladder
// rung.
func (o *Observer) observe(ev recovery.Event) {
	app := o.ctx.App
	rung := rungName(ev.Rung)
	if ev.Strategy != 0 {
		rung = ev.Strategy.String()
	}
	switch ev.Kind {
	case recovery.EventFailure:
		o.reg.Counter(MetricFailures,
			L("app", app, "class", o.class(ev.Mechanism), "mechanism", ev.Mechanism)...).Inc()
		if !o.rec.Active() {
			o.rec.Begin(ev.At, ev.Op, ev.Mechanism)
			for _, sp := range o.pending {
				o.rec.Note(time.Duration(sp.StartUS)*time.Microsecond, sp)
			}
			o.pending = nil
			o.rec.Note(ev.At, Span{Kind: SpanActivation, Note: errText(ev.Err)})
			return
		}
		// A failure inside an open episode is a retry that did not serve the
		// op; the mechanism may have drifted (e.g. a restore hitting a full
		// disk fails differently than the original crash).
		o.rec.Drift(ev.Mechanism)
		o.rec.Note(ev.At, Span{Kind: SpanRetry, Rung: rung, Attempt: ev.Attempt, Outcome: "fail", Note: errText(ev.Err)})
	case recovery.EventWatchdog:
		o.reg.Counter(MetricWatchdogTimeouts,
			L("app", app, "mechanism", ev.Mechanism)...).Inc()
		sp := Span{Kind: SpanWatchdog, Note: errText(ev.Err)}
		if o.rec.Active() {
			o.rec.Note(ev.At, sp)
			return
		}
		// chargeHang runs before the failure is classified: hold the span and
		// attach it when the episode opens.
		sp.StartUS = US(ev.At)
		sp.EndUS = sp.StartUS
		o.pending = append(o.pending, sp)
	case recovery.EventBackoff:
		o.reg.Counter(MetricBackoffSeconds, L("app", app)...).Add(ev.Delay.Seconds())
		o.rec.Interval(ev.At, ev.At+ev.Delay,
			Span{Kind: SpanBackoff, Rung: rung, Attempt: ev.Attempt})
	case recovery.EventAction:
		o.reg.Counter(MetricRecoveryAttempts,
			L("app", app, "class", o.class(ev.Mechanism), "rung", rung)...).Inc()
		outcome := "ok"
		if ev.Err != nil {
			outcome = "fail" // the recovery action itself failed
		}
		o.rec.Note(ev.At, Span{Kind: SpanAction, Rung: rung, Attempt: ev.Attempt,
			Outcome: outcome, Component: ev.Component, Note: errText(ev.Err)})
	case recovery.EventRetryOK:
		o.reg.Counter(MetricRecoveries,
			L("app", app, "class", o.class(ev.Mechanism), "rung", rung)...).Inc()
		o.rec.Note(ev.At, Span{Kind: SpanRetry, Rung: rung, Attempt: ev.Attempt, Outcome: "ok"})
		outcome := OutcomeRecovered
		if ev.Rung == recovery.RungDegraded {
			outcome = OutcomeDegraded
		}
		o.closeEpisode(ev.At, outcome, rung)
	case recovery.EventEscalate:
		o.reg.Counter(MetricEscalations,
			L("app", app, "class", o.class(ev.Mechanism), "rung", rung)...).Inc()
		o.rec.Note(ev.At, Span{Kind: SpanDecision, Rung: rung, Outcome: "escalate"})
	case recovery.EventBreakerOpen:
		o.reg.Counter(MetricBreakerOpens, L("app", app, "mechanism", ev.Mechanism)...).Inc()
		o.rec.Note(ev.At, Span{Kind: SpanDecision, Rung: rung, Outcome: "breaker-open",
			Note: ev.Mechanism})
	case recovery.EventFastFail:
		o.reg.Counter(MetricFastFails, L("app", app, "mechanism", ev.Mechanism)...).Inc()
		o.rec.Note(ev.At, Span{Kind: SpanDecision, Outcome: "fast-fail", Note: ev.Mechanism})
		o.closeEpisode(ev.At, OutcomeFastFail, "")
	case recovery.EventDegraded:
		o.reg.Gauge(MetricDegraded, L("app", app)...).Set(1)
		o.rec.Note(ev.At, Span{Kind: SpanDecision, Rung: rung, Outcome: "degraded-enter"})
	case recovery.EventDegradedExit:
		o.reg.Gauge(MetricDegraded, L("app", app)...).Set(0)
		o.rec.Note(ev.At, Span{Kind: SpanDecision, Outcome: "degraded-exit"})
	case recovery.EventShed:
		o.reg.Counter(MetricShedOps, L("app", app)...).Inc()
		if o.rec.Active() {
			// The op whose episode is open was itself shed at the degraded
			// rung; steady-state sheds (no open episode) are metrics-only.
			o.rec.Note(ev.At, Span{Kind: SpanDecision, Rung: rung, Outcome: "shed"})
			o.closeEpisode(ev.At, OutcomeShed, rung)
		}
	case recovery.EventGiveUp:
		o.rec.Note(ev.At, Span{Kind: SpanDecision, Rung: rung, Outcome: "gave-up",
			Note: errText(ev.Err)})
		o.closeEpisode(ev.At, OutcomeLost, rung)
	case recovery.EventCheckpoint:
		o.reg.Counter(MetricCheckpoints, L("app", app)...).Inc()
		// Checkpoints happen between episodes; Note drops the span when no
		// episode is open, which keeps traces episode-shaped.
		o.rec.Note(ev.At, Span{Kind: SpanCheckpoint, Note: ev.Op})
	}
}

// rungName renders a ladder rung for span and metric labels; the zero
// value (no rung in effect yet, e.g. the initial failure of an episode)
// renders as empty so instant spans stay compact in JSONL.
func rungName(r recovery.Rung) string {
	if r == recovery.RungNone {
		return ""
	}
	return r.String()
}

// closeEpisode ends the open episode and feeds its duration and retry count
// into the histograms.
func (o *Observer) closeEpisode(at time.Duration, outcome, finalRung string) {
	ep := o.rec.End(at, outcome, finalRung)
	o.observeEpisode(ep, outcome, "")
}

// observeEpisode records the per-episode metrics. When the recorder is nil
// (metrics-only instrumentation) ep is nil and mechanism supplies the class
// label; retries are then unknown and the retry histogram is skipped.
func (o *Observer) observeEpisode(ep *Episode, outcome, mechanism string) {
	class := o.class(mechanism)
	if ep != nil {
		class = ep.Class
	}
	o.reg.Counter(MetricEpisodes,
		L("app", o.ctx.App, "class", class, "outcome", outcome)...).Inc()
	if ep == nil {
		return
	}
	o.reg.Histogram(MetricEpisodeSeconds, LatencyBuckets,
		L("app", o.ctx.App, "class", class)...).ObserveDuration(ep.Duration())
	if outcome == OutcomeRecovered || outcome == OutcomeDegraded {
		o.reg.Histogram(MetricRetriesPerRecovery, RetryBuckets,
			L("app", o.ctx.App, "class", class)...).Observe(float64(ep.Retries))
	}
}

// Flush closes any episode left open as lost (a run can end mid-episode
// when recovery is disabled) and returns it. Call once per instrumented run,
// after the workload finishes. Nil-safe.
func (o *Observer) Flush(at time.Duration) *Episode {
	if o == nil {
		return nil
	}
	ep := o.rec.Flush(at)
	if ep != nil {
		o.observeEpisode(ep, OutcomeLost, ep.Mechanism)
	}
	return ep
}

// WorkloadHook counts generated workload items in a registry; it satisfies
// workload.Hook without the workload package importing obsv. A nil
// *WorkloadHook (or one with a nil registry) records nothing.
type WorkloadHook struct {
	// Registry receives the workload-mix counters.
	Registry *Registry
}

// Generated counts one generated workload item.
func (h *WorkloadHook) Generated(stream, category string) {
	if h == nil {
		return
	}
	h.Registry.Counter(MetricWorkloadOps, L("stream", stream, "category", category)...).Inc()
}
