// Package obsv is the observability layer over the recovery laboratory: a
// stdlib-only metrics registry, a structured trace recorder, and an episode
// timeline reporter, all driven off the injectable simenv virtual clock so
// every run's telemetry is deterministic and testable.
//
// The paper (Chandra & Chen, DSN 2000) classifies faults by environment
// dependence; the recovery experiments in this repository measure whether
// generic recovery survives each class. What was missing is the *why*: for a
// given fault episode, which escalation-ladder rungs were tried, how long
// each cost, and where the episode ended. Microreboot work (Candea & Fox)
// makes the case that per-episode timing and outcome telemetry is what turns
// a recovery mechanism into an evaluable system; this package supplies it.
//
// The three pieces:
//
//   - Registry: counters, gauges, and fixed-bucket histograms with ordered
//     label sets, exported as Prometheus exposition text (WritePrometheus).
//     All iteration orders are sorted, so exports are byte-stable across
//     runs.
//   - Recorder: builds Episodes — one per fault-handling episode, from the
//     first observed failure to the final supervisor decision — out of
//     timestamped spans (activation, backoff, ladder-rung action,
//     checkpoint, restore, decision). Timestamps are time.Durations on the
//     virtual monotonic clock; no wall-clock read happens anywhere in this
//     package. Episodes round-trip through a documented JSONL schema
//     (WriteJSONL / ReadJSONL).
//   - Timeline and Summarize: render a per-episode narrative (activated →
//     retried ×N → microrebooted → served-degraded) and the per-class
//     (EI/EDN/EDT) table — MTTR, retries-per-recovery, ladder-rung
//     distribution, served/degraded/lost fractions — that lets the paper's
//     headline split be read directly off measured recovery telemetry.
//
// Instrumentation attaches through the hook interfaces the instrumented
// packages already expose, by two bridges that turn events into registry
// metrics and recorder episodes: Observer folds the recovery.Event stream
// that supervise.Config.Trace and recovery.Policy.Trace both deliver, and
// WorkloadHook counts what workload.Hook reports.
// Hooks are nil-safe and cost one branch when disabled.
//
// Metric names, label sets, histogram buckets, and the trace-span schema
// are documented in OBSERVABILITY.md at the repository root.
package obsv
