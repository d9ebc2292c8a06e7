package component

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// fakeClock is a test clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration      { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now += d }

// fakeComp is a minimal crash-only component for tree tests.
type fakeComp struct {
	name    string
	up      bool
	starts  int
	kills   int
	stops   int
	probeFn func() error
}

func (f *fakeComp) Name() string { return f.name }
func (f *fakeComp) Start() error { f.starts++; f.up = true; return nil }
func (f *fakeComp) Stop()        { f.stops++; f.up = false }
func (f *fakeComp) Kill()        { f.kills++; f.up = false }
func (f *fakeComp) Probe() error {
	if f.probeFn != nil {
		return f.probeFn()
	}
	if !f.up {
		return Down(f.name)
	}
	return nil
}
func (f *fakeComp) Running() bool { return f.up }

// buildTree assembles core <- (logger, cache <- proxy) for the tests.
func buildTree(t *testing.T) (*Tree, *fakeClock, map[string]*fakeComp) {
	t.Helper()
	clock := &fakeClock{}
	tree := NewTree(clock)
	comps := map[string]*fakeComp{
		"core":   {name: "core"},
		"logger": {name: "logger"},
		"cache":  {name: "cache"},
		"proxy":  {name: "proxy"},
	}
	tree.MustAdd(Spec{Component: comps["core"], StartCost: 10 * time.Millisecond})
	tree.MustAdd(Spec{Component: comps["logger"], Deps: []string{"core"}, StartCost: 2 * time.Millisecond})
	tree.MustAdd(Spec{Component: comps["cache"], Deps: []string{"core"}, StartCost: 5 * time.Millisecond})
	tree.MustAdd(Spec{Component: comps["proxy"], Deps: []string{"cache"}, StartCost: 3 * time.Millisecond})
	return tree, clock, comps
}

func TestTreeAddValidation(t *testing.T) {
	tree := NewTree(&fakeClock{})
	if err := tree.Add(Spec{}); err == nil {
		t.Fatal("nil component accepted")
	}
	if err := tree.Add(Spec{Component: &fakeComp{name: "a"}, Deps: []string{"missing"}}); err == nil {
		t.Fatal("unknown dependency accepted")
	}
	if err := tree.Add(Spec{Component: &fakeComp{name: "a"}}); err != nil {
		t.Fatalf("add a: %v", err)
	}
	if err := tree.Add(Spec{Component: &fakeComp{name: "a"}}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestTreeStartStopOrder(t *testing.T) {
	tree, clock, comps := buildTree(t)
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	if !tree.AllRunning() {
		t.Fatal("not all running after StartAll")
	}
	if got, want := clock.Now(), 20*time.Millisecond; got != want {
		t.Fatalf("StartAll cost = %s, want %s", got, want)
	}
	// Idempotent: a second StartAll must not double-start or re-charge.
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll twice: %v", err)
	}
	if comps["core"].starts != 1 {
		t.Fatalf("core started %d times, want 1", comps["core"].starts)
	}
	if clock.Now() != 20*time.Millisecond {
		t.Fatalf("idempotent StartAll re-charged the clock: %s", clock.Now())
	}
	tree.StopAll()
	if tree.AllRunning() || tree.Running("core") {
		t.Fatal("still running after StopAll")
	}
}

func TestTreeRebootChargesClockAndCounts(t *testing.T) {
	tree, clock, comps := buildTree(t)
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	before := clock.Now()
	if err := tree.Reboot("logger", false, nil); err != nil {
		t.Fatalf("Reboot: %v", err)
	}
	if got, want := clock.Now()-before, 2*time.Millisecond; got != want {
		t.Fatalf("reboot cost = %s, want %s", got, want)
	}
	if comps["logger"].kills != 1 || comps["logger"].starts != 2 {
		t.Fatalf("logger kills=%d starts=%d, want 1/2", comps["logger"].kills, comps["logger"].starts)
	}
	if comps["core"].kills != 0 {
		t.Fatal("sibling core was killed by a leaf reboot")
	}
	if tree.Reboots("logger") != 1 || tree.TotalReboots() != 1 {
		t.Fatalf("reboot counters: %d/%d", tree.Reboots("logger"), tree.TotalReboots())
	}
	if err := tree.Reboot("nope", false, nil); err == nil {
		t.Fatal("reboot of unknown component accepted")
	}
}

func TestTreeSubtree(t *testing.T) {
	tree, _, comps := buildTree(t)
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	sub := tree.SubtreeOf("cache")
	if len(sub) != 2 || sub[0] != "cache" || sub[1] != "proxy" {
		t.Fatalf("SubtreeOf(cache) = %v", sub)
	}
	if got, want := tree.SubtreeCost("cache"), 8*time.Millisecond; got != want {
		t.Fatalf("SubtreeCost = %s, want %s", got, want)
	}
	if err := tree.Reboot("cache", true, nil); err != nil {
		t.Fatalf("RebootSubtree: %v", err)
	}
	if comps["cache"].kills != 1 || comps["proxy"].kills != 1 {
		t.Fatal("subtree reboot missed a dependent")
	}
	if comps["core"].kills != 0 || comps["logger"].kills != 0 {
		t.Fatal("subtree reboot touched components outside the subtree")
	}
	if tree.TotalReboots() != 2 {
		t.Fatalf("TotalReboots = %d, want 2", tree.TotalReboots())
	}
	root := tree.SubtreeOf("core")
	if len(root) != 4 {
		t.Fatalf("SubtreeOf(core) = %v, want all 4", root)
	}
}

func TestTreeKillRestartWindow(t *testing.T) {
	tree, clock, _ := buildTree(t)
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	if err := tree.Kill("cache"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if tree.Running("cache") {
		t.Fatal("cache running after Kill")
	}
	if !tree.Running("core") || !tree.Running("logger") {
		t.Fatal("siblings down after a single-component Kill")
	}
	before := clock.Now()
	if err := tree.Restart("cache"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if clock.Now()-before != 5*time.Millisecond {
		t.Fatalf("restart charged %s", clock.Now()-before)
	}
	if !tree.Running("cache") || tree.Reboots("cache") != 1 {
		t.Fatal("cache not back up or not counted")
	}
}

func TestTreeProbe(t *testing.T) {
	tree, _, comps := buildTree(t)
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	if findings := tree.Probe(); len(findings) != 0 {
		t.Fatalf("healthy probe found %v", findings)
	}
	comps["logger"].up = false
	findings := tree.Probe()
	if len(findings) != 1 {
		t.Fatalf("probe findings = %v", findings)
	}
	var de *DownError
	if !errors.As(findings["logger"], &de) || de.Component != "logger" {
		t.Fatalf("logger probe error = %v", findings["logger"])
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Put("b", "k", "v")
	if v, ok := s.Get("b", "k"); !ok || v != "v" {
		t.Fatalf("Get = %q/%v", v, ok)
	}
	if n := s.Incr("b", "seq"); n != 1 {
		t.Fatalf("first Incr = %d", n)
	}
	if n := s.Incr("b", "seq"); n != 2 {
		t.Fatalf("second Incr = %d", n)
	}
	if s.Len("b") != 2 {
		t.Fatalf("Len = %d", s.Len("b"))
	}
	keys := s.Keys("b")
	if len(keys) != 2 || keys[0] != "k" || keys[1] != "seq" {
		t.Fatalf("Keys = %v", keys)
	}
	s.Delete("b", "k")
	if _, ok := s.Get("b", "k"); ok {
		t.Fatal("key survived Delete")
	}
	s.Reset()
	if s.Len("b") != 0 {
		t.Fatal("bucket survived Reset")
	}
}

func TestStoreSnapshotDeterministicAndRestores(t *testing.T) {
	s := NewStore()
	s.Put("z", "b", "2")
	s.Put("z", "a", "1")
	s.Put("a", "x", "9")
	snap1, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	snap2, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("snapshots of identical state differ")
	}
	s.Put("z", "c", "3")
	if err := s.Restore(snap1); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, ok := s.Get("z", "c"); ok {
		t.Fatal("post-snapshot write survived Restore")
	}
	if v, _ := s.Get("z", "a"); v != "1" {
		t.Fatalf("restored value = %q", v)
	}
	snap3, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !bytes.Equal(snap1, snap3) {
		t.Fatal("round-tripped snapshot differs")
	}
	if err := s.Restore([]byte("not json")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestDownError(t *testing.T) {
	err := Down("httpd/cache")
	var de *DownError
	if !errors.As(err, &de) || de.Component != "httpd/cache" {
		t.Fatalf("Down = %v", err)
	}
	if err.Error() != "component httpd/cache is down" {
		t.Fatalf("Error() = %q", err.Error())
	}
}
