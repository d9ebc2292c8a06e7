package obsv

import (
	"errors"
	"testing"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
	"faultstudy/internal/taxonomy"
)

// TestObserverSuperviseStream replays a hand-written supervisor event stream
// — hang charge, failure, backoff, action, failed retry, escalation, served
// retry — and checks the episode and the metrics the bridge derives from it.
func TestObserverSuperviseStream(t *testing.T) {
	reg, rec := NewRegistry(), NewRecorder()
	obs := NewObserver(reg, rec, Context{App: "apache", Class: "EI"})
	var forwarded int
	hook := obs.Trace(func(recovery.Event) { forwarded++ })

	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	hangErr := faultinject.Fail("httpd/wedge", taxonomy.SymptomHang, "wedged")
	events := []recovery.Event{
		// chargeHang emits the watchdog event before the failure is
		// classified; the bridge must hold the span for the episode.
		{Kind: recovery.EventWatchdog, At: sec(30), Op: "GET /", Mechanism: "httpd/wedge", Err: hangErr},
		{Kind: recovery.EventFailure, At: sec(30), Op: "GET /", Mechanism: "httpd/wedge", Err: hangErr},
		{Kind: recovery.EventBackoff, At: sec(30), Op: "GET /", Mechanism: "httpd/wedge",
			Rung: recovery.RungRetry, Attempt: 1, Delay: sec(1)},
		{Kind: recovery.EventAction, At: sec(31), Op: "GET /", Mechanism: "httpd/wedge",
			Rung: recovery.RungRetry, Attempt: 1},
		{Kind: recovery.EventFailure, At: sec(61), Op: "GET /", Mechanism: "httpd/wedge", Err: hangErr,
			Rung: recovery.RungRetry},
		{Kind: recovery.EventEscalate, At: sec(61), Op: "GET /", Mechanism: "httpd/wedge",
			Rung: recovery.RungMicroreboot},
		{Kind: recovery.EventBackoff, At: sec(61), Op: "GET /", Mechanism: "httpd/wedge",
			Rung: recovery.RungMicroreboot, Attempt: 2, Delay: sec(2)},
		{Kind: recovery.EventAction, At: sec(63), Op: "GET /", Mechanism: "httpd/wedge",
			Rung: recovery.RungMicroreboot, Attempt: 2},
		{Kind: recovery.EventRetryOK, At: sec(63), Op: "GET /", Mechanism: "httpd/wedge",
			Rung: recovery.RungMicroreboot, Attempt: 2},
	}
	for _, ev := range events {
		hook(ev)
	}
	if forwarded != len(events) {
		t.Fatalf("forwarded %d events to next hook, want %d", forwarded, len(events))
	}

	eps := rec.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	e := eps[0]
	if e.Outcome != OutcomeRecovered || e.FinalRung != "microreboot" {
		t.Errorf("episode = %s at %s, want recovered at microreboot", e.Outcome, e.FinalRung)
	}
	if e.Retries != 2 {
		t.Errorf("Retries = %d, want 2", e.Retries)
	}
	if e.Duration() != 33*time.Second {
		t.Errorf("Duration = %s, want 33s", e.Duration())
	}
	if e.Spans[0].Kind != SpanWatchdog {
		t.Errorf("first span = %s, want the held watchdog span", e.Spans[0].Kind)
	}

	if got := reg.Counter(MetricFailures, L("app", "apache", "class", "EI", "mechanism", "httpd/wedge")...).Value(); got != 2 {
		t.Errorf("failures counter = %v, want 2", got)
	}
	if got := reg.Counter(MetricEpisodes, L("app", "apache", "class", "EI", "outcome", OutcomeRecovered)...).Value(); got != 1 {
		t.Errorf("episodes counter = %v, want 1", got)
	}
	if got := reg.Counter(MetricBackoffSeconds, L("app", "apache")...).Value(); got != 3 {
		t.Errorf("backoff seconds = %v, want 3", got)
	}
	if got := histCount(reg.Histogram(MetricRetriesPerRecovery, RetryBuckets, L("app", "apache", "class", "EI")...)); got != 1 {
		t.Errorf("retry histogram count = %v, want 1", got)
	}
	if got := reg.Counter(MetricWatchdogTimeouts, L("app", "apache", "mechanism", "httpd/wedge")...).Value(); got != 1 {
		t.Errorf("watchdog counter = %v, want 1", got)
	}
}

// TestObserverShedAndFastFail exercises the verdict paths that end episodes
// without a served retry.
func TestObserverShedAndFastFail(t *testing.T) {
	reg, rec := NewRegistry(), NewRecorder()
	obs := NewObserver(reg, rec, Context{App: "mysql", Class: "EDN"})
	hook := obs.Trace(nil)
	err := errors.New("disk full")

	// Episode 1: degraded entry sheds the write.
	hook(recovery.Event{Kind: recovery.EventFailure, At: time.Second, Op: "INSERT", Mechanism: "sqldb/disk-full", Err: err})
	hook(recovery.Event{Kind: recovery.EventDegraded, At: 2 * time.Second, Rung: recovery.RungDegraded})
	hook(recovery.Event{Kind: recovery.EventShed, At: 2 * time.Second, Op: "INSERT", Rung: recovery.RungDegraded})
	// Steady-state shed: no open episode, metrics only.
	hook(recovery.Event{Kind: recovery.EventShed, At: 3 * time.Second, Op: "UPDATE", Rung: recovery.RungDegraded})
	// Episode 2: open breaker fast-fails the next failure.
	hook(recovery.Event{Kind: recovery.EventFailure, At: 4 * time.Second, Op: "INSERT", Mechanism: "sqldb/disk-full", Err: err})
	hook(recovery.Event{Kind: recovery.EventFastFail, At: 4 * time.Second, Op: "INSERT", Mechanism: "sqldb/disk-full", Err: err})

	eps := rec.Episodes()
	if len(eps) != 2 {
		t.Fatalf("episodes = %d, want 2", len(eps))
	}
	if eps[0].Outcome != OutcomeShed || eps[1].Outcome != OutcomeFastFail {
		t.Fatalf("outcomes = %s, %s", eps[0].Outcome, eps[1].Outcome)
	}
	if got := reg.Counter(MetricShedOps, L("app", "mysql")...).Value(); got != 2 {
		t.Errorf("shed counter = %v, want 2", got)
	}
	if got := reg.Gauge(MetricDegraded, L("app", "mysql")...).Value(); got != 1 {
		t.Errorf("degraded gauge = %v, want 1", got)
	}
	if got := reg.Counter(MetricFastFails, L("app", "mysql", "mechanism", "sqldb/disk-full")...).Value(); got != 1 {
		t.Errorf("fast-fail counter = %v, want 1", got)
	}
}

// TestObserverStrategyStream replays a bare strategy's trace (recovery.Manager)
// and checks the strategy-labelled episode it produces.
func TestObserverStrategyStream(t *testing.T) {
	reg, rec := NewRegistry(), NewRecorder()
	obs := NewObserver(reg, rec, Context{App: "apache", FaultID: "apache-7", Class: "EDT"})
	hook := obs.Trace(nil)

	const mech, pp = "httpd/dns-error", recovery.StrategyProcessPairs
	ferr := faultinject.Fail(mech, taxonomy.SymptomError, "lookup failed")
	hook(recovery.Event{Kind: recovery.EventFailure, At: time.Second, Op: "GET", Mechanism: mech, Strategy: pp, Err: ferr})
	hook(recovery.Event{Kind: recovery.EventAction, At: time.Second, Op: "GET", Mechanism: mech, Strategy: pp, Attempt: 1})
	hook(recovery.Event{Kind: recovery.EventFailure, At: 46 * time.Second, Op: "GET", Mechanism: mech, Strategy: pp, Attempt: 1, Err: ferr})
	hook(recovery.Event{Kind: recovery.EventAction, At: 46 * time.Second, Op: "GET", Mechanism: mech, Strategy: pp, Attempt: 2})
	hook(recovery.Event{Kind: recovery.EventRetryOK, At: 91 * time.Second, Op: "GET", Mechanism: mech, Strategy: pp, Attempt: 2})

	eps := rec.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	e := eps[0]
	if e.Outcome != OutcomeRecovered || e.FinalRung != "process-pairs" || e.Retries != 2 {
		t.Errorf("episode = %+v", e)
	}
	if e.Mechanism != "httpd/dns-error" || e.Class != "EDT" {
		t.Errorf("identity = %s/%s", e.Mechanism, e.Class)
	}
	if e.Duration() != 90*time.Second {
		t.Errorf("Duration = %s, want 90s", e.Duration())
	}
	if got := reg.Counter(MetricRecoveries, L("app", "apache", "class", "EDT", "rung", "process-pairs")...).Value(); got != 1 {
		t.Errorf("recoveries = %v, want 1", got)
	}
	if got := reg.Counter(MetricRecoveryAttempts, L("app", "apache", "class", "EDT", "rung", "process-pairs")...).Value(); got != 2 {
		t.Errorf("recovery attempts = %v, want 2", got)
	}
	if sp := e.Spans[2]; sp.Kind != SpanRetry || sp.Rung != "process-pairs" || sp.Attempt != 1 || sp.Outcome != "fail" {
		t.Errorf("failed retry span = %+v, want process-pairs attempt 1 fail", sp)
	}
	// The initial failure and the failed retry both count.
	if got := reg.Counter(MetricFailures, L("app", "apache", "class", "EDT", "mechanism", "httpd/dns-error")...).Value(); got != 2 {
		t.Errorf("failures = %v, want 2 (initial and retried)", got)
	}

	// A strategy with no recovery leaves the episode open; Flush closes it.
	hook(recovery.Event{Kind: recovery.EventFailure, At: 100 * time.Second, Op: "GET", Mechanism: mech,
		Strategy: recovery.StrategyNone, Err: ferr})
	if ep := obs.Flush(101 * time.Second); ep == nil || ep.Outcome != OutcomeLost {
		t.Fatalf("Flush = %+v, want lost episode", ep)
	}
}

// TestWorkloadHook checks the generation counter and its nil-safety.
func TestWorkloadHook(t *testing.T) {
	reg := NewRegistry()
	h := &WorkloadHook{Registry: reg}
	h.Generated("http", "static")
	h.Generated("http", "static")
	h.Generated("sql", "insert")
	if got := reg.Counter(MetricWorkloadOps, L("stream", "http", "category", "static")...).Value(); got != 2 {
		t.Errorf("workload counter = %v, want 2", got)
	}
	var nilHook *WorkloadHook
	nilHook.Generated("http", "static") // must not panic
	(&WorkloadHook{}).Generated("http", "static")
}
