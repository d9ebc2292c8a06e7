package component

import (
	"errors"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/simenv"
)

// fakeApp is a whole-process lifecycle that logs each call and can be told
// to fail Restore and Reset.
type fakeApp struct {
	env     *simenv.Env
	log     *[]string
	running bool
	fail    error
}

func (a *fakeApp) Name() string              { return "fake" }
func (a *fakeApp) Env() *simenv.Env          { return a.env }
func (a *fakeApp) Running() bool             { return a.running }
func (a *fakeApp) Snapshot() ([]byte, error) { return []byte("snap"), nil }
func (a *fakeApp) Start() error              { a.note("app.start"); a.running = true; return nil }
func (a *fakeApp) Stop()                     { a.note("app.stop"); a.running = false }
func (a *fakeApp) Restore([]byte) error      { return a.restart("app.restore") }
func (a *fakeApp) Reset() error              { return a.restart("app.reset") }

func (a *fakeApp) note(ev string) { *a.log = append(*a.log, ev) }

func (a *fakeApp) restart(ev string) error {
	a.note(ev)
	if a.fail != nil {
		return a.fail
	}
	a.running = true
	return nil
}

// TestProcessLifecycle pins the one componentized lifecycle every app
// shares: the process comes up before its tree and goes down after it, a
// failed Restore or Reset leaves the tree down, the store outlives both, and
// ContainCrash and ComponentFor reach what the app supplied.
func TestProcessLifecycle(t *testing.T) {
	var log []string
	a := &fakeApp{env: simenv.New(1), log: &log}
	contained := 0
	p := NewProcess(a, map[string]string{"fake/mech": "fake/leaf"}, func() { contained++ })
	for _, spec := range []Spec{
		{Component: NewPart("fake/root", Hooks{
			OnStart: func() error { log = append(log, "root.start"); return nil },
			OnKill:  func() { log = append(log, "root.kill") },
		}), StartCost: time.Millisecond},
		{Component: NewPart("fake/leaf", Hooks{
			OnStart: func() error { log = append(log, "leaf.start"); return nil },
			OnKill:  func() { log = append(log, "leaf.kill") },
		}), Deps: []string{"fake/root"}, StartCost: time.Millisecond},
	} {
		p.Tree().MustAdd(spec)
	}
	expect := func(step string, want ...string) {
		t.Helper()
		if got := strings.Join(log, " "); got != strings.Join(want, " ") {
			t.Errorf("%s: calls = %q, want %q", step, got, strings.Join(want, " "))
		}
		log = log[:0]
	}

	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	expect("Start", "app.start", "root.start", "leaf.start")
	p.Store().Put("fake/sessions", "alice", "1")

	p.Stop()
	expect("Stop", "leaf.kill", "root.kill", "app.stop")

	if err := p.Restore(nil); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	expect("Restore", "app.restore", "root.start", "leaf.start")
	p.Stop()
	log = log[:0]
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	expect("Reset", "app.reset", "root.start", "leaf.start")
	if v, ok := p.Store().Get("fake/sessions", "alice"); !ok || v != "1" {
		t.Errorf("store after Restore and Reset = %q/%v, want 1", v, ok)
	}

	a.fail = errors.New("disk gone")
	for _, op := range []struct {
		name string
		do   func() error
		ev   string
	}{
		{"Restore", func() error { return p.Restore(nil) }, "app.restore"},
		{"Reset", p.Reset, "app.reset"},
	} {
		p.Stop()
		log = log[:0]
		if err := op.do(); !errors.Is(err, a.fail) {
			t.Errorf("failing %s = %v, want the app's error", op.name, err)
		}
		expect("failing "+op.name, op.ev)
		if p.Tree().Running("fake/root") || p.Tree().Running("fake/leaf") {
			t.Errorf("failing %s started the tree", op.name)
		}
	}

	p.ContainCrash()
	if contained != 1 {
		t.Errorf("ContainCrash ran the closure %d times, want 1", contained)
	}
	if comp, ok := p.ComponentFor("fake/mech"); !ok || comp != "fake/leaf" {
		t.Errorf("ComponentFor(fake/mech) = %q/%v, want fake/leaf", comp, ok)
	}
	if _, ok := p.ComponentFor("fake/other"); ok {
		t.Error("ComponentFor attributed an unmapped mechanism")
	}
	if p.Name() != "fake" || p.Env() != a.env {
		t.Error("Name/Env not the wrapped process's")
	}
}
