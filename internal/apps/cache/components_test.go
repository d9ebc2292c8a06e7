package cache

import (
	"reflect"
	"testing"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

func newComponentized(t *testing.T, mechs ...string) *Componentized {
	t.Helper()
	env := simenv.New(1, simenv.WithFDLimit(64))
	c := Componentize(New(env, faultinject.NewSet(mechs...), Config{}))
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return c
}

func TestComponentForCoversEveryMechanism(t *testing.T) {
	c := newComponentized(t)
	parts := map[string]bool{}
	for _, name := range c.Tree().Names() {
		parts[name] = true
	}
	for _, m := range Mechanisms {
		key := m.Key
		comp, ok := c.ComponentFor(key)
		if !ok {
			t.Errorf("mechanism %s maps to no component", key)
			continue
		}
		if !parts[comp] {
			t.Errorf("mechanism %s maps to unknown component %s", key, comp)
		}
	}
	if len(componentFor) != len(Mechanisms) {
		t.Errorf("%d component mappings vs %d mechanisms", len(componentFor), len(Mechanisms))
	}
}

func TestPersistDownDegradesToUnpersisted(t *testing.T) {
	c := newComponentized(t)
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
	if err := c.srv.Set("down", "v"); err != nil {
		t.Fatalf("set with persist down: %v", err)
	}
	if v, err := c.srv.Get("down"); err != nil || v != "v" {
		t.Fatalf("get with persist down: %q, %v", v, err)
	}
	if err := c.Tree().Reboot(CompPersist, false, nil); err != nil {
		t.Fatalf("restart persist: %v", err)
	}
	c.srv.mu.Lock()
	suspended = c.srv.aofSuspended
	c.srv.mu.Unlock()
	if suspended {
		t.Fatal("persist restart did not resume the append-only log")
	}
	if _, ok := c.srv.DurableStore().Get("down"); ok {
		t.Fatal("a set served with persist down reached the log")
	}
	if err := c.srv.Set("up", "v"); err != nil {
		t.Fatalf("set after persist restart: %v", err)
	}
	if _, ok := c.srv.DurableStore().Get("up"); !ok {
		t.Fatal("a set after persist restart was not logged")
	}
}

func TestListenerRebootDropsLeakedDescriptors(t *testing.T) {
	// The crash-only payoff for the leak mechanisms: rebooting the listener
	// closes every leaked connection descriptor and rebinds the port clean,
	// where a generic restore would faithfully re-leak them.
	c := newComponentized(t, MechConnFDLeak)
	for i := 0; i < 5; i++ {
		if _, err := c.srv.Get("motd"); err != nil {
			t.Fatalf("get %d: %v", i, err)
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
	if _, err := c.srv.Get("motd"); err != nil {
		t.Fatalf("get after listener reboot: %v", err)
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

// TestAOFMatchesItemsOnBothRestorePaths is the differential check on the
// cache's two ways back to a state: a process Restore reconciles the
// append-only store with the snapshot's items, and a persist microreboot
// rebuilds the store by replaying that log. After each, the store's keys
// and values must equal the in-memory items exactly.
func TestAOFMatchesItemsOnBothRestorePaths(t *testing.T) {
	c := newComponentized(t)
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		if err := c.srv.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("set %s: %v", kv[0], err)
		}
	}
	items := func() map[string]string {
		c.srv.mu.Lock()
		defer c.srv.mu.Unlock()
		out := make(map[string]string, len(c.srv.items))
		for k, v := range c.srv.items {
			out[k] = v
		}
		return out
	}
	want := items()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Diverge after the snapshot: a new key, an overwrite, a delete.
	if err := c.srv.Set("d", "4"); err != nil {
		t.Fatal(err)
	}
	if err := c.srv.Set("a", "changed"); err != nil {
		t.Fatal(err)
	}
	if err := c.srv.Del("b"); err != nil {
		t.Fatal(err)
	}

	agree := func(step string) {
		t.Helper()
		st := c.srv.DurableStore()
		stored := map[string]string{}
		for _, k := range st.Keys() {
			v, _ := st.Get(k)
			stored[k] = string(v)
		}
		if got := items(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stored, want) {
			t.Fatalf("%s: store %v, items %v, want the snapshot's %v in both", step, stored, got, want)
		}
	}
	c.Stop()
	if err := c.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	agree("after Restore")
	if err := c.Tree().Reboot(CompPersist, false, nil); err != nil {
		t.Fatalf("persist reboot: %v", err)
	}
	agree("after the persist reboot replayed the log")
}
