package recovery

import (
	"errors"
	"strings"
	"testing"

	"faultstudy/internal/faultinject"
)

// Satellite coverage for RunRejuvenating's error paths and for the Policy
// clamp. The happy paths (reset cadence, first-failure terminality, interval
// validation at zero) live in edge_test.go; here we exercise the run when the
// rejuvenation itself breaks, when the interval never fires, when the staged
// precondition panics, and when an op fails outside the fault model.

func noopOps(n int) []faultinject.Op {
	ops := make([]faultinject.Op, n)
	for i := range ops {
		ops[i] = faultinject.Op{Name: "noop", Do: func() error { return nil }}
	}
	return ops
}

func TestRejuvenationRejectsNegativeInterval(t *testing.T) {
	app := newFakeApp()
	m := NewManager(Policy{})
	_, err := m.RunRejuvenating(app, failingScenario(0), -3)
	if err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Errorf("err = %v, want interval rejection", err)
	}
	if app.Running() {
		t.Error("app must not be started when the interval is rejected")
	}
	if app.resets != 0 {
		t.Errorf("resets = %d, want 0", app.resets)
	}
}

func TestRejuvenationResetFailureMidRun(t *testing.T) {
	app := newFakeApp()
	app.resetErr = errors.New("init scripts broken")
	m := NewManager(Policy{})
	sc := faultinject.Scenario{Mechanism: "fake/x", Ops: noopOps(4)}
	out, err := m.RunRejuvenating(app, sc, 2)
	if err == nil || !strings.Contains(err.Error(), "rejuvenate before op 2") {
		t.Fatalf("err = %v, want rejuvenation failure before op 2", err)
	}
	if out.Survived {
		t.Error("run must not survive a failed rejuvenation")
	}
	if out.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0 (the reset never completed)", out.Recoveries)
	}
	if app.resets != 1 {
		t.Errorf("resets = %d, want exactly 1 attempt", app.resets)
	}
	if app.Running() {
		t.Error("deferred Stop must leave the app down after a harness error")
	}
}

func TestRejuvenationIntervalBeyondWorkload(t *testing.T) {
	// An interval at or past the workload length means the cadence never
	// fires: the run is plain execution, zero rejuvenations.
	for _, interval := range []int{3, 100} {
		app := newFakeApp()
		m := NewManager(Policy{})
		sc := faultinject.Scenario{Mechanism: "fake/x", Ops: noopOps(3)}
		out, err := m.RunRejuvenating(app, sc, interval)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if !out.Survived {
			t.Errorf("interval %d: out = %+v, want survived", interval, out)
		}
		if out.Recoveries != 0 || app.resets != 0 {
			t.Errorf("interval %d: recoveries=%d resets=%d, want 0/0",
				interval, out.Recoveries, app.resets)
		}
	}
}

func TestRejuvenationStagePanicStopsApp(t *testing.T) {
	// A panicking Stage propagates (it is a scenario bug, not a run outcome),
	// but the deferred Stop must still bring the application down so a
	// panicking test run cannot leak a live app into the next one.
	app := newFakeApp()
	m := NewManager(Policy{})
	sc := faultinject.Scenario{
		Mechanism: "fake/x",
		Stage:     func() { panic("staging exploded") },
		Ops:       noopOps(1),
	}
	defer func() {
		if recover() == nil {
			t.Error("stage panic should propagate")
		}
		if app.Running() {
			t.Error("deferred Stop must run on a Stage panic")
		}
	}()
	_, _ = m.RunRejuvenating(app, sc, 1)
}

func TestRejuvenationUnmodeledOpErrorIsHarnessError(t *testing.T) {
	app := newFakeApp()
	m := NewManager(Policy{})
	sc := faultinject.Scenario{
		Mechanism: "fake/x",
		Ops: []faultinject.Op{{Name: "op", Do: func() error {
			return errors.New("plain error")
		}}},
	}
	out, err := m.RunRejuvenating(app, sc, 10)
	if err == nil || !strings.Contains(err.Error(), "outside the fault model") {
		t.Fatalf("err = %v, want fault-model violation", err)
	}
	if out.Survived || out.Failures != 0 {
		t.Errorf("out = %+v, want unsurvived with no modeled failures", out)
	}
	if app.Running() {
		t.Error("deferred Stop must leave the app down")
	}
}

func TestPolicyClampsNegativeValues(t *testing.T) {
	p := Policy{MaxRetries: -5}.withDefaults()
	if p.MaxRetries != 3 {
		t.Errorf("MaxRetries = %d, want clamped default 3", p.MaxRetries)
	}

	// Zero values take the same defaults; positive values pass through.
	z := Policy{}.withDefaults()
	if z.MaxRetries != 3 {
		t.Errorf("zero policy = %+v, want defaults", z)
	}
	q := Policy{MaxRetries: 7}.withDefaults()
	if q.MaxRetries != 7 {
		t.Errorf("explicit policy mangled: %+v", q)
	}
}

func TestNegativePolicyBehavesAsDefault(t *testing.T) {
	// End to end: a manager built with nonsense negatives retries the default
	// three times rather than zero (or "minus five") times.
	app := newFakeApp()
	m := NewManager(Policy{MaxRetries: -5})
	out, err := m.Run(app, failingScenario(10), StrategyProcessPairs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Survived {
		t.Fatal("ten consecutive failures must exhaust the default budget")
	}
	if out.Attempts != 3 {
		t.Errorf("attempts = %d, want default budget 3", out.Attempts)
	}
}
