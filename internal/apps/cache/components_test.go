package cache

import (
	"errors"
	"testing"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

func newComponentized(t *testing.T, mechs ...string) *Componentized {
	t.Helper()
	env := simenv.New(1, simenv.WithFDLimit(64))
	c := Componentize(New(env, faultinject.NewSet(mechs...), Config{}), component.NewStore())
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return c
}

func TestComponentForCoversEveryMechanism(t *testing.T) {
	reg := faultinject.NewRegistry()
	RegisterMechanisms(reg)
	c := newComponentized(t)
	parts := map[string]bool{}
	for _, name := range c.Tree().Names() {
		parts[name] = true
	}
	for _, key := range reg.Keys() {
		comp, ok := c.ComponentFor(key)
		if !ok {
			t.Errorf("mechanism %s maps to no component", key)
			continue
		}
		if !parts[comp] {
			t.Errorf("mechanism %s maps to unknown component %s", key, comp)
		}
	}
	if len(componentFor) != len(reg.Keys()) {
		t.Errorf("%d component mappings vs %d mechanisms", len(componentFor), len(reg.Keys()))
	}
}

func TestHotKeysSurviveRebootAndRestart(t *testing.T) {
	// The externalization regression test: a session's hot-key counter must
	// survive a core microreboot, a subtree reboot, and a process restart.
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatalf("warm: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.ServeArrival(i, 1, 0.10); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
	}
	if v, ok := c.Store().Get(HotKeyBucket, "u00001"); !ok || v != "2" {
		t.Fatalf("hot-key counter = %q/%v, want 2", v, ok)
	}

	if err := c.Tree().Reboot(CompCore, false, nil); err != nil {
		t.Fatalf("reboot core: %v", err)
	}
	if v, _ := c.Store().Get(HotKeyBucket, "u00001"); v != "2" {
		t.Fatalf("hot key lost in core reboot: %q", v)
	}
	if err := c.Tree().Reboot(CompCore, true, nil); err != nil {
		t.Fatalf("reboot subtree: %v", err)
	}
	if v, _ := c.Store().Get(HotKeyBucket, "u00001"); v != "2" {
		t.Fatalf("hot key lost in subtree reboot: %q", v)
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	c.Stop()
	if err := c.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, _, err := c.ServeArrival(2, 1, 0.10); err != nil {
		t.Fatalf("arrival after restart: %v", err)
	}
	if v, _ := c.Store().Get(HotKeyBucket, "u00001"); v != "3" {
		t.Fatalf("hot key did not resume across restart: %q, want 3", v)
	}
}

func TestServeRefusesThroughDownComponents(t *testing.T) {
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatal(err)
	}
	if err := c.Tree().Kill(CompSweeper); err != nil {
		t.Fatalf("kill sweeper: %v", err)
	}
	// Miss fills and deletes route through the sweeper and must refuse…
	for _, u := range []float64{0.70, 0.92} {
		category, comp, err := c.ServeArrival(0, 1, u)
		var de *component.DownError
		if !errors.As(err, &de) || de.Component != CompSweeper || comp != CompSweeper {
			t.Fatalf("%s with sweeper down: comp=%q err=%v", category, comp, err)
		}
	}
	// …while hits, sets, and stats keep serving.
	for _, u := range []float64{0.10, 0.80, 0.97} {
		if category, _, err := c.ServeArrival(1, 1, u); err != nil {
			t.Fatalf("%s failed during sweeper outage: %v", category, err)
		}
	}
	if err := c.Tree().Restart(CompSweeper); err != nil {
		t.Fatalf("restart sweeper: %v", err)
	}
	if _, _, err := c.ServeArrival(2, 1, 0.70); err != nil {
		t.Fatalf("miss after sweeper restart: %v", err)
	}

	// A dead listener refuses every category.
	if err := c.Tree().Kill(CompListener); err != nil {
		t.Fatalf("kill listener: %v", err)
	}
	for _, u := range []float64{0.10, 0.70, 0.80, 0.92, 0.97} {
		category, comp, err := c.ServeArrival(3, 1, u)
		if err == nil || comp != CompListener {
			t.Fatalf("%s served through a dead listener: comp=%q err=%v", category, comp, err)
		}
	}
}

func TestPersistDownDegradesToUnpersisted(t *testing.T) {
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatal(err)
	}
	if err := c.Tree().Kill(CompPersist); err != nil {
		t.Fatalf("kill persist: %v", err)
	}
	c.srv.mu.Lock()
	suspended := c.srv.aofSuspended
	c.srv.mu.Unlock()
	if !suspended {
		t.Fatal("persist kill did not suspend the append-only log")
	}
	// Mutations still serve — unpersisted rather than refused.
	if category, comp, err := c.ServeArrival(0, 1, 0.80); err != nil {
		t.Fatalf("%s with persist down: comp=%q err=%v", category, comp, err)
	}
	if err := c.Tree().Restart(CompPersist); err != nil {
		t.Fatalf("restart persist: %v", err)
	}
	c.srv.mu.Lock()
	suspended = c.srv.aofSuspended
	c.srv.mu.Unlock()
	if suspended {
		t.Fatal("persist restart did not resume the append-only log")
	}
}

func TestListenerRebootDropsLeakedDescriptors(t *testing.T) {
	// The crash-only payoff for the leak mechanisms: rebooting the listener
	// closes every leaked connection descriptor and rebinds the port clean,
	// where a generic restore would faithfully re-leak them.
	c := newComponentized(t, MechConnFDLeak)
	if err := c.ServeWarm(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.ServeArrival(i, 1, 0.10); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
	}
	c.srv.mu.Lock()
	held := len(c.srv.connFDs)
	c.srv.mu.Unlock()
	if held == 0 {
		t.Fatal("leak mechanism held no descriptors")
	}
	if err := c.Tree().Reboot(CompListener, false, nil); err != nil {
		t.Fatalf("reboot listener: %v", err)
	}
	c.srv.mu.Lock()
	held, want := len(c.srv.connFDs), c.srv.connFDWant
	c.srv.mu.Unlock()
	if held != 0 || want != 0 {
		t.Fatalf("listener reboot kept leaks: fds=%d want=%d", held, want)
	}
	if _, _, err := c.ServeArrival(9, 1, 0.10); err != nil {
		t.Fatalf("arrival after listener reboot: %v", err)
	}
}

func TestContainCrashRevivesProcess(t *testing.T) {
	// Crash containment: a seeded crash marks the process dead, containment
	// brings the process flag back, and rebooting the attributed component
	// restores service with the crash window (lastFlush, shadow copies) reset.
	c := newComponentized(t, MechEmptyKeyDeref)
	_, err := c.srv.Get("")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechEmptyKeyDeref {
		t.Fatalf("bug path error = %v", err)
	}
	if c.Running() {
		t.Fatal("process alive after seeded crash")
	}
	comp, ok := c.ComponentFor(MechEmptyKeyDeref)
	if !ok || comp != CompCore {
		t.Fatalf("ComponentFor = %q/%v", comp, ok)
	}
	c.ContainCrash()
	if !c.Running() {
		t.Fatal("process dead after containment")
	}
	if err := c.Tree().Reboot(comp, false, nil); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if v, err := c.srv.Get("motd"); err != nil || v == "" {
		t.Fatalf("serve after contained reboot: %q, %v", v, err)
	}
	if got := c.Tree().Reboots(comp); got != 1 {
		t.Errorf("core reboots = %d, want 1", got)
	}
}

func TestCoreRebootClearsShadowCopies(t *testing.T) {
	c := newComponentized(t, MechShadowCopyLeak)
	for i := 0; i < 5; i++ {
		if err := c.srv.Set("k", "v"); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	c.srv.mu.Lock()
	leaked := c.srv.shadowBytes
	c.srv.mu.Unlock()
	if leaked != 5 {
		t.Fatalf("shadow copies = %d, want 5", leaked)
	}
	if err := c.Tree().Reboot(CompCore, false, nil); err != nil {
		t.Fatalf("reboot core: %v", err)
	}
	c.srv.mu.Lock()
	leaked = c.srv.shadowBytes
	c.srv.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("core reboot kept %d shadow copies", leaked)
	}
}
