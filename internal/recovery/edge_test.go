package recovery

import (
	"errors"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

// fakeApp is a scriptable Application for exercising the manager's edge
// paths without a real simulated application.
type fakeApp struct {
	env         *simenv.Env
	running     bool
	startErr    error
	snapshotErr error
	restoreErr  error
	resetErr    error
	restores    int
	resets      int
}

func newFakeApp() *fakeApp { return &fakeApp{env: simenv.New(1)} }

func (f *fakeApp) Name() string { return "fake" }
func (f *fakeApp) Start() error {
	if f.startErr != nil {
		return f.startErr
	}
	f.running = true
	return nil
}
func (f *fakeApp) Stop()         { f.running = false }
func (f *fakeApp) Running() bool { return f.running }
func (f *fakeApp) Snapshot() ([]byte, error) {
	if f.snapshotErr != nil {
		return nil, f.snapshotErr
	}
	return []byte("{}"), nil
}
func (f *fakeApp) Restore(_ []byte) error {
	f.restores++
	if f.restoreErr != nil {
		return f.restoreErr
	}
	f.running = true
	return nil
}
func (f *fakeApp) Reset() error {
	f.resets++
	if f.resetErr != nil {
		return f.resetErr
	}
	f.running = true
	return nil
}
func (f *fakeApp) Env() *simenv.Env { return f.env }

var _ Application = (*fakeApp)(nil)

func failingScenario(failures int) faultinject.Scenario {
	n := 0
	return faultinject.Scenario{
		Mechanism: "fake/transient",
		Ops: []faultinject.Op{{Name: "op", Do: func() error {
			n++
			if n <= failures {
				return faultinject.Fail("fake/transient", taxonomy.SymptomCrash, "boom")
			}
			return nil
		}}},
	}
}

func TestStartErrorIsHarnessError(t *testing.T) {
	app := newFakeApp()
	app.startErr = errors.New("no port")
	m := NewManager(Policy{})
	if _, err := m.Run(app, failingScenario(0), StrategyProcessPairs); err == nil {
		t.Error("start error should surface as a harness error")
	}
}

func TestSnapshotErrorIsHarnessError(t *testing.T) {
	app := newFakeApp()
	app.snapshotErr = errors.New("disk gone")
	m := NewManager(Policy{})
	if _, err := m.Run(app, failingScenario(0), StrategyProcessPairs); err == nil {
		t.Error("snapshot error should surface as a harness error")
	}
}

func TestRestoreErrorFailsTheRunNotTheHarness(t *testing.T) {
	app := newFakeApp()
	app.restoreErr = errors.New("backup refused")
	m := NewManager(Policy{})
	out, err := m.Run(app, failingScenario(1), StrategyProcessPairs)
	if err != nil {
		t.Fatalf("restore failure must not be a harness error: %v", err)
	}
	if out.Survived {
		t.Error("run should be lost when recovery itself fails")
	}
	if out.Err == nil || !strings.Contains(out.Err.Error(), "recovery failed") {
		t.Errorf("err = %v", out.Err)
	}
}

func TestResetErrorFailsCleanRestart(t *testing.T) {
	app := newFakeApp()
	app.resetErr = errors.New("init scripts broken")
	m := NewManager(Policy{})
	out, err := m.Run(app, failingScenario(1), StrategyCleanRestart)
	if err != nil {
		t.Fatal(err)
	}
	if out.Survived {
		t.Error("run should be lost")
	}
}

func TestTransientFailureRecoversAfterOneRetry(t *testing.T) {
	app := newFakeApp()
	m := NewManager(Policy{})
	out, err := m.Run(app, failingScenario(1), StrategyProcessPairs)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Survived || out.Attempts != 1 || app.restores != 1 {
		t.Errorf("out=%+v restores=%d", out, app.restores)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	app := newFakeApp()
	m := NewManager(Policy{MaxRetries: 2})
	out, err := m.Run(app, failingScenario(10), StrategyProcessPairs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Survived {
		t.Error("should be lost")
	}
	if out.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", out.Attempts)
	}
}

func TestFirstOpNonFailureErrorIsHarnessError(t *testing.T) {
	app := newFakeApp()
	sc := faultinject.Scenario{
		Mechanism: "fake/x",
		Ops: []faultinject.Op{{Name: "op", Do: func() error {
			return errors.New("plain error")
		}}},
	}
	m := NewManager(Policy{})
	if _, err := m.Run(app, sc, StrategyProcessPairs); err == nil {
		t.Error("non-failure op error should be a harness error")
	}
}

func TestRejuvenationIntervalValidation(t *testing.T) {
	app := newFakeApp()
	m := NewManager(Policy{})
	if _, err := m.RunRejuvenating(app, failingScenario(0), 0); err == nil {
		t.Error("interval 0 should be rejected")
	}
}

func TestRejuvenationCountsResets(t *testing.T) {
	app := newFakeApp()
	ops := make([]faultinject.Op, 10)
	for i := range ops {
		ops[i] = faultinject.Op{Name: "noop", Do: func() error { return nil }}
	}
	m := NewManager(Policy{})
	out, err := m.RunRejuvenating(app, faultinject.Scenario{Mechanism: "fake/x", Ops: ops}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Survived {
		t.Errorf("out = %+v", out)
	}
	// Rejuvenation before ops 3, 6, 9.
	if out.Recoveries != 3 || app.resets != 3 {
		t.Errorf("recoveries=%d resets=%d, want 3/3", out.Recoveries, app.resets)
	}
}

func TestRejuvenationFirstFailureIsTerminal(t *testing.T) {
	app := newFakeApp()
	m := NewManager(Policy{})
	out, err := m.RunRejuvenating(app, failingScenario(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if out.Survived || out.Failures != 1 {
		t.Errorf("out = %+v", out)
	}
}

func TestSkipReclaimLeavesResources(t *testing.T) {
	app := newFakeApp()
	// A resource held by the "failed primary".
	if _, err := app.env.Procs().Spawn("fake"); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Policy{SkipReclaim: true})
	out, err := m.Run(app, failingScenario(1), StrategyProcessPairs)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Survived {
		t.Fatalf("out = %+v", out)
	}
	if app.env.Procs().OwnedBy("fake") != 1 {
		t.Error("SkipReclaim should leave the process in place")
	}
	// Default policy reclaims it.
	app2 := newFakeApp()
	if _, err := app2.env.Procs().Spawn("fake"); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Policy{})
	if _, err := m2.Run(app2, failingScenario(1), StrategyProcessPairs); err != nil {
		t.Fatal(err)
	}
	if app2.env.Procs().OwnedBy("fake") != 0 {
		t.Error("default policy should reclaim the process")
	}
}

func TestGovernorGrowsExhaustedResources(t *testing.T) {
	env := simenv.New(3, simenv.WithFDLimit(4), simenv.WithDiskBytes(100), simenv.WithMaxFileSize(50))

	// Descriptors.
	for {
		if _, err := env.FDs().Open("x"); err != nil {
			break
		}
	}
	_, fdErr := env.FDs().Open("x")
	if !GrowResources(env, faultinject.FailCause("m", taxonomy.SymptomError, "fds", fdErr)) {
		t.Error("fd exhaustion should be growable")
	}
	if _, err := env.FDs().Open("x"); err != nil {
		t.Errorf("open after growth: %v", err)
	}

	// Disk capacity: fill it, capture the failing append, grow, retry.
	if err := env.Disk().Append("/a", "x", 50); err != nil {
		t.Fatal(err)
	}
	if err := env.Disk().Append("/b", "x", 50); err != nil {
		t.Fatal(err)
	}
	diskErr := env.Disk().Append("/c", "x", 50)
	if diskErr == nil {
		t.Fatal("premise broken: disk not full")
	}
	if !GrowResources(env, faultinject.FailCause("m", taxonomy.SymptomError, "disk", diskErr)) {
		t.Error("full disk should be growable")
	}
	if err := env.Disk().Append("/c", "x", 50); err != nil {
		t.Errorf("append after growth: %v", err)
	}

	// File-size limit.
	sizeErr := env.Disk().Append("/a", "x", 10)
	if sizeErr == nil {
		t.Skip("premise broken: file not at limit")
	}
	if !GrowResources(env, faultinject.FailCause("m", taxonomy.SymptomError, "file", sizeErr)) {
		t.Error("file-size limit should be growable")
	}
	if err := env.Disk().Append("/a", "x", 10); err != nil {
		t.Errorf("append after file-size growth: %v", err)
	}

	// Non-growable conditions.
	if GrowResources(env, faultinject.Fail("m", taxonomy.SymptomError, "hostname changed")) {
		t.Error("host config must not be growable")
	}
	if GrowResources(env, faultinject.FailCause("m", taxonomy.SymptomError, "card", simenv.ErrNetworkDown)) {
		t.Error("a removed card must not be growable")
	}
}

func TestGovernorGrowsNetResource(t *testing.T) {
	env := simenv.New(3)
	env.Net().SetResourceCap(2)
	_ = env.Net().AcquireResource()
	_ = env.Net().AcquireResource()
	err := env.Net().AcquireResource()
	if !GrowResources(env, faultinject.FailCause("m", taxonomy.SymptomError, "net", err)) {
		t.Error("net resource should be growable")
	}
	if err := env.Net().AcquireResource(); err != nil {
		t.Errorf("acquire after growth: %v", err)
	}
}

// TestTraceSequence pins the events one strategy run emits: the failure that
// opens the episode, then an action before every retry and each retry's
// outcome. Every event carries the strategy, and a failure carries its
// mechanism and the attempt it failed on.
func TestTraceSequence(t *testing.T) {
	var events []Event
	app := newFakeApp()
	m := NewManager(Policy{Trace: func(ev Event) {
		events = append(events, ev)
	}})
	out, err := m.Run(app, failingScenario(2), StrategyProcessPairs)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Survived {
		t.Fatalf("out = %+v", out)
	}
	want := []struct {
		kind    EventKind
		attempt int
	}{{EventFailure, 0}, {EventAction, 1}, {EventFailure, 1}, {EventAction, 2}, {EventRetryOK, 2}}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i, w := range want {
		ev := events[i]
		if ev.Kind != w.kind || ev.Attempt != w.attempt || ev.Strategy != StrategyProcessPairs {
			t.Errorf("event %d = %v attempt %d strategy %v, want %v attempt %d process-pairs",
				i, ev.Kind, ev.Attempt, ev.Strategy, w.kind, w.attempt)
		}
		if ev.Kind == EventFailure && (ev.Mechanism != "fake/transient" || ev.Err == nil) {
			t.Errorf("failure event %d = %+v, want the mechanism and its error", i, ev)
		}
		if ev.Kind == EventAction && ev.Err != nil {
			t.Errorf("action event %d carries error %v", i, ev.Err)
		}
	}
}

func TestTraceGaveUp(t *testing.T) {
	var last Event
	app := newFakeApp()
	m := NewManager(Policy{MaxRetries: 1, Trace: func(ev Event) { last = ev }})
	out, err := m.Run(app, failingScenario(10), StrategyProcessPairs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Survived {
		t.Fatal("should be lost")
	}
	if last.Kind != EventGiveUp {
		t.Errorf("last event = %v, want gave-up", last.Kind)
	}
	for k := EventFailure; k <= EventCheckpoint; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "EventKind(") {
			t.Errorf("no name for kind %d", int(k))
		}
	}
	if EventKind(42).String() != "EventKind(42)" {
		t.Error("unknown kind string")
	}
}

// TestStrategyPerturbationContract pins what each bare strategy's recovery
// leaves the retry: process pairs and clean restart force no choice at the
// failing mechanism, progressive retry forces the attempt there, and each
// recovery advances the virtual clock by the 45 s takeover — (1+attempt)
// takeovers for progressive retry.
func TestStrategyPerturbationContract(t *testing.T) {
	const mech = "fake/race"
	for _, strat := range []Strategy{StrategyProcessPairs, StrategyProgressiveRetry, StrategyCleanRestart} {
		t.Run(strat.String(), func(t *testing.T) {
			app := newFakeApp()
			sched := app.env.Sched()
			attempt, last := 0, app.env.Monotonic()
			sc := faultinject.Scenario{Mechanism: mech, Ops: []faultinject.Op{{Name: "op", Do: func() error {
				now := app.env.Monotonic()
				if attempt > 0 {
					want := 45 * time.Second
					if strat == StrategyProgressiveRetry {
						want *= time.Duration(1 + attempt)
					}
					if now-last != want {
						t.Errorf("attempt %d: recovery advanced the clock %s, want %s", attempt, now-last, want)
					}
					// A pinned point answers the same on every draw; a
					// reseeded one almost never does over 2^30 choices.
					first, second := sched.Interleave(mech, 1<<30), sched.Interleave(mech, 1<<30)
					switch {
					case strat == StrategyProgressiveRetry && (first != attempt || second != attempt):
						t.Errorf("attempt %d: Interleave(%s) = %d, %d, want the attempt forced", attempt, mech, first, second)
					case strat != StrategyProgressiveRetry && first == second:
						t.Errorf("attempt %d: %s pinned choice %d at %s", attempt, strat, first, mech)
					}
				}
				attempt, last = attempt+1, now
				return faultinject.Fail(mech, taxonomy.SymptomCrash, "boom")
			}}}}
			out, err := NewManager(Policy{}).Run(app, sc, strat)
			if err != nil {
				t.Fatal(err)
			}
			if out.Attempts != 3 || attempt != 4 {
				t.Errorf("attempts = %d, op runs = %d, want 3 recoveries and 4 runs", out.Attempts, attempt)
			}
		})
	}
}
