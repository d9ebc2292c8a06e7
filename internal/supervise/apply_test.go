package supervise

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
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

// TestApplyContract pins the executor over ladder rung × attribution ×
// widening: where the outage hook fires and what it sees, which state a
// process-level action reinstates, and the Wang93 perturbation every action
// ends with. Widening is the ladder's later attempt on a rung, which turns a
// microreboot into a RungSubtreeReboot and leaves every other rung as it is:
// an attributed subtree reboot cycles mid and its dependent top, and an
// unattributed one restores like a microreboot. Two rows pin the fields the
// bare strategies set: Attempt 0 forces no choice, and KeepResources leaves
// the stopped process's resources in place.
func TestApplyContract(t *testing.T) {
	type row struct {
		name string
		a    recovery.Action
	}
	var rows []row
	for _, rung := range []recovery.Rung{recovery.RungRetry, recovery.RungMicroreboot, recovery.RungRestore, recovery.RungRestart} {
		for _, attributed := range []bool{true, false} {
			for _, widen := range []bool{false, true} {
				mech := "host/unattributed"
				if attributed {
					mech = hostMech
				}
				a := recovery.Action{Rung: rung, Mechanism: mech, Attempt: 2, Snapshot: []byte("pre-op")}
				if widen && rung == recovery.RungMicroreboot {
					a.Rung = recovery.RungSubtreeReboot
				}
				rows = append(rows, row{fmt.Sprintf("%s/attributed=%t/widen=%t", rung, attributed, widen), a})
			}
		}
	}
	rows = append(rows,
		row{"restore/attempt=0", recovery.Action{Rung: recovery.RungRestore, Mechanism: hostMech, Snapshot: []byte("pre-op")}},
		row{"restart/keep-resources", recovery.Action{Rung: recovery.RungRestart, Mechanism: hostMech, Attempt: 2, KeepResources: true}})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { checkApply(t, r.a) })
	}
}

func checkApply(t *testing.T, a recovery.Action) {
	app := newHostApp(t)
	if _, err := app.env.FDs().Open(app.Name()); err != nil {
		t.Fatalf("open fd: %v", err)
	}
	if _, err := app.env.Procs().Spawn(app.Name()); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if err := app.env.Net().BindPort(8080, app.Name()); err != nil {
		t.Fatalf("bind: %v", err)
	}
	app.env.Sched().Force("unrelated/point", 1)

	wantTarget, wantCost, wantLog := "", time.Duration(-1), []string(nil)
	subtree := a.Rung == recovery.RungSubtreeReboot
	switch {
	case (a.Rung == recovery.RungMicroreboot || subtree) && a.Mechanism == hostMech:
		wantTarget, wantCost = "mid", 3*time.Millisecond // mid's StartCost
		if subtree {
			wantCost += 4 * time.Millisecond // and its dependent top's
		}
	case a.Rung == recovery.RungRestart:
		wantCost, wantLog = 0, []string{"stop", "reset"}
	case a.Rung != recovery.RungRetry: // a restore, or a reboot's fallback to one
		wantCost, wantLog = 0, []string{"stop", "restore pre-op"}
	}

	var fired []string
	target, err := recovery.Apply(app, a, func(comp string, cost time.Duration) {
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
		down := map[string]bool{"mid": true, "top": subtree}
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
	held := app.env.FDs().OwnedBy(app.Name()) + app.env.Procs().OwnedBy(app.Name()) + app.env.Net().ReleaseOwnerPorts(app.Name())
	switch {
	case wantLog != nil && !a.KeepResources && held != 0:
		t.Errorf("process-level action left %d of the process's descriptors, processes and ports unreclaimed", held)
	case a.KeepResources && held != 3:
		t.Errorf("KeepResources left %d of the process's descriptor, process and port, want all 3", held)
	}
	// A pinned point answers the same on every draw; a reseeded one almost
	// never does over 2^30 choices.
	pinned := func(point string) bool {
		return app.env.Sched().Interleave(point, 1<<30) == app.env.Sched().Interleave(point, 1<<30)
	}
	if a.Attempt == 0 && pinned(a.Mechanism) {
		t.Errorf("Apply with Attempt 0 pinned a choice at %s", a.Mechanism)
	}
	if got := app.env.Sched().Interleave(a.Mechanism, 5); a.Attempt > 0 && got != a.Attempt {
		t.Errorf("Interleave(%s) = %d after Apply, want the attempt %d forced", a.Mechanism, got, a.Attempt)
	}
	if pinned("unrelated/point") {
		t.Error("after Apply, the unrelated point is still forced")
	}
}

// TestDegradedReviveBouncesPartialTree drives the supervisor into degraded
// mode with a component down. Nine flaky ops each recover on one retry,
// spending nine of the twelve retries the budget allows per window; the
// failing write's two retry-rung attempts spend two more, and its
// microreboot — whose restart of mid fails — the last. The ladder escalates,
// and the retry budget trips before the restore rung can bounce the
// process. The process is still running, but Revive treats a component tree
// with a member down as not serving, so it bounces the process and restores
// the pre-op checkpoint; the shed write then finds every component up.
func TestDegradedReviveBouncesPartialTree(t *testing.T) {
	app := newHostApp(t)
	app.midFails = 1
	var shedAllUp []bool
	sup := New(app, Config{Seed: 1, Trace: func(ev recovery.Event) {
		if ev.Kind == recovery.EventShed {
			shedAllUp = append(shedAllUp, app.running && app.tree.AllRunning())
		}
	}})
	var ops []Op
	for i := 0; i < 9; i++ {
		fails := 1
		ops = append(ops, Op{Name: fmt.Sprintf("flaky-%d", i), Kind: OpRead, Do: func() error {
			if fails > 0 {
				fails--
				return &faultinject.FailureError{Mechanism: "host/flaky", Msg: "once"}
			}
			return nil
		}})
	}
	rep, err := sup.Run(append(ops, Op{Name: "write", Kind: OpWrite, Do: func() error {
		return &faultinject.FailureError{Mechanism: hostMech, Msg: "bug"}
	}}))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Recovered != 9 || rep.Escalations[recovery.RungMicroreboot] != 1 || rep.Escalations[recovery.RungRestore] != 1 ||
		rep.CrashLoopTrips != 1 || !rep.Degraded || rep.OpsShed != 1 {
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
