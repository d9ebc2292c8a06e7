package supervise

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// hostApp is a componentized Application over a real tree:
// core <- (leaf, mid <- top). Mechanism hostMech is attributed to mid, whose
// next midFails starts fail.
type hostApp struct {
	env      *simenv.Env
	tree     *component.Tree
	running  bool
	log      []string
	midFails int
}

const hostMech = "host/mid-bug"

func newHostApp(t *testing.T) *hostApp {
	t.Helper()
	env := simenv.New(3)
	a := &hostApp{env: env, tree: component.NewTree(component.EnvClock{Env: env})}
	for _, spec := range []component.Spec{
		{Component: component.NewPart("core", component.Hooks{}), StartCost: 10 * time.Millisecond},
		{Component: component.NewPart("leaf", component.Hooks{}), Deps: []string{"core"}, StartCost: 2 * time.Millisecond},
		{Component: component.NewPart("mid", component.Hooks{OnStart: func() error {
			if a.midFails > 0 {
				a.midFails--
				return errors.New("mid: start failed")
			}
			return nil
		}}), Deps: []string{"core"}, StartCost: 3 * time.Millisecond},
		{Component: component.NewPart("top", component.Hooks{}), Deps: []string{"mid"}, StartCost: 4 * time.Millisecond},
	} {
		a.tree.MustAdd(spec)
	}
	if err := a.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return a
}

func (a *hostApp) Name() string              { return "host" }
func (a *hostApp) Env() *simenv.Env          { return a.env }
func (a *hostApp) Running() bool             { return a.running }
func (a *hostApp) Snapshot() ([]byte, error) { return []byte("snap"), nil }
func (a *hostApp) Tree() *component.Tree     { return a.tree }
func (a *hostApp) ContainCrash()             { a.running = true }
func (a *hostApp) Start() error {
	a.running = true
	return a.tree.StartAll()
}
func (a *hostApp) Stop() {
	a.log = append(a.log, "stop")
	a.running = false
	a.tree.StopAll()
}
func (a *hostApp) Restore(snap []byte) error {
	a.log = append(a.log, "restore "+string(snap))
	return a.Start()
}
func (a *hostApp) Reset() error {
	a.log = append(a.log, "reset")
	return a.Start()
}
func (a *hostApp) ComponentFor(mech string) (string, bool) {
	if mech == hostMech {
		return "mid", true
	}
	return "", false
}

// TestApplyContract pins the executor over rung × attribution × widening:
// where the outage hook fires and what it sees, which state a process-level
// action reinstates, and the Wang93 perturbation every action ends with.
func TestApplyContract(t *testing.T) {
	for _, rung := range []Rung{RungRetry, RungMicroreboot, RungRestore, RungRestart} {
		for _, attributed := range []bool{true, false} {
			for _, widen := range []bool{false, true} {
				mech := "host/unattributed"
				if attributed {
					mech = hostMech
				}
				t.Run(fmt.Sprintf("%s/attributed=%t/widen=%t", rung, attributed, widen), func(t *testing.T) {
					checkApply(t, Action{Rung: rung, Mechanism: mech, Attempt: 2, Widen: widen,
						Snapshot: []byte("pre-op")})
				})
			}
		}
	}
}

func checkApply(t *testing.T, a Action) {
	app := newHostApp(t)
	if _, err := app.env.FDs().Open(app.Name()); err != nil {
		t.Fatalf("open fd: %v", err)
	}
	app.env.Sched().Force("unrelated/point", 1)

	wantTarget, wantCost, wantLog := "", time.Duration(-1), []string(nil)
	switch {
	case a.Rung == RungMicroreboot && a.Mechanism == hostMech:
		wantTarget, wantCost = "mid", app.tree.RebootCost("mid")
		if a.Widen {
			wantCost = app.tree.SubtreeCost("mid")
		}
	case a.Rung == RungRestart:
		wantCost, wantLog = 0, []string{"stop", "reset"}
	case a.Rung != RungRetry: // a restore, or the microreboot's fallback to one
		wantCost, wantLog = 0, []string{"stop", "restore pre-op"}
	}

	var fired []string
	target, err := Apply(app, a, func(comp string, cost time.Duration) {
		fired = append(fired, comp)
		if comp != wantTarget || cost != wantCost {
			t.Errorf("outage(%q, %s), want (%q, %s)", comp, cost, wantTarget, wantCost)
		}
		if comp == "" {
			// Whole process: after Stop, before the reclaim.
			if app.running || len(app.log) != 1 || app.log[0] != "stop" {
				t.Errorf("process outage fired with running=%t log=%v, want just after Stop", app.running, app.log)
			}
			if app.env.FDs().OwnedBy(app.Name()) != 1 {
				t.Error("process outage fired after the reclaim")
			}
			return
		}
		// Component: the rebooting members are down, everything else is up.
		down := map[string]bool{"mid": true, "top": a.Widen}
		for _, name := range app.tree.Names() {
			if app.tree.Running(name) == down[name] {
				t.Errorf("inside the %s window: %s running=%t", comp, name, !down[name])
			}
		}
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if target != wantTarget {
		t.Errorf("target = %q, want %q", target, wantTarget)
	}
	if wantCost < 0 && len(fired) != 0 || wantCost >= 0 && len(fired) != 1 {
		t.Errorf("outage fired %d times (%q)", len(fired), fired)
	}
	if fmt.Sprint(app.log) != fmt.Sprint(wantLog) {
		t.Errorf("process log = %v, want %v", app.log, wantLog)
	}
	if !app.running || !app.tree.AllRunning() {
		t.Error("application not fully up after Apply")
	}
	if wantLog != nil && app.env.FDs().OwnedBy(app.Name()) != 0 {
		t.Error("process-level action left the process's descriptors unreclaimed")
	}
	if got := app.env.Sched().Interleave(a.Mechanism, 5); got != a.Attempt {
		t.Errorf("Interleave(%s) = %d after Apply, want the attempt %d forced", a.Mechanism, got, a.Attempt)
	}
	if got := app.env.Sched().Describe(); got != "scheduler: 1 forced point(s)" {
		t.Errorf("after Apply %s, want only the attempt forced", got)
	}
}

// TestDegradedReviveBouncesPartialTree drives the supervisor into degraded
// mode with a component down: the microreboot's restart of mid fails, the
// ladder escalates, and the retry budget trips. The process is still
// running, but Revive treats a component tree with a member down as not
// serving, so it bounces the process and restores the pre-op checkpoint;
// the shed write then finds every component up.
func TestDegradedReviveBouncesPartialTree(t *testing.T) {
	app := newHostApp(t)
	app.midFails = 1
	var shedAllUp []bool
	sup := New(app, Config{Seed: 1, RetryBudget: 2, RungAttempts: 1, Trace: func(ev Event) {
		if ev.Kind == EventShed {
			shedAllUp = append(shedAllUp, app.running && app.tree.AllRunning())
		}
	}})
	rep, err := sup.Run([]Op{{Name: "write", Kind: OpWrite, Do: func() error {
		return &faultinject.FailureError{Mechanism: hostMech, Msg: "bug"}
	}}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Escalations[RungMicroreboot] != 1 || rep.CrashLoopTrips != 1 || !rep.Degraded || rep.OpsShed != 1 {
		t.Fatalf("want one microreboot, a budget trip and a shed write:\n%s", rep)
	}
	if app.midFails != 0 {
		t.Fatal("the microreboot never restarted mid")
	}
	// Revive's bounce, then Run's closing Stop.
	if want := "[stop restore snap stop]"; fmt.Sprint(app.log) != want {
		t.Errorf("process log = %v, want %s", app.log, want)
	}
	if len(shedAllUp) != 1 || !shedAllUp[0] {
		t.Errorf("shed with every component up = %v, want [true]", shedAllUp)
	}
}
