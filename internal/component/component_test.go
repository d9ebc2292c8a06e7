package component

import (
	"errors"
	"strconv"
	"testing"
	"time"
)

// fakeClock is a test clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration      { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now += d }

// fakeComp is a minimal crash-only component for tree tests.
type fakeComp struct {
	name   string
	up     bool
	starts int
	kills  int
	stops  int
}

func (f *fakeComp) Name() string  { return f.name }
func (f *fakeComp) Start() error  { f.starts++; f.up = true; return nil }
func (f *fakeComp) Stop()         { f.stops++; f.up = false }
func (f *fakeComp) Kill()         { f.kills++; f.up = false }
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
	if tree.Reboots("logger") != 1 || tree.Reboots("core") != 0 {
		t.Fatalf("reboot counters: logger %d, core %d", tree.Reboots("logger"), tree.Reboots("core"))
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
	var down []string
	var cost time.Duration
	if err := tree.Reboot("cache", true, func(c time.Duration) {
		cost = c
		for _, name := range tree.Names() {
			if !tree.Running(name) {
				down = append(down, name)
			}
		}
	}); err != nil {
		t.Fatalf("widened Reboot: %v", err)
	}
	if len(down) != 2 || down[0] != "cache" || down[1] != "proxy" {
		t.Fatalf("down during the cache subtree reboot = %v, want [cache proxy]", down)
	}
	if want := 8 * time.Millisecond; cost != want {
		t.Fatalf("subtree reboot cost = %s, want %s", cost, want)
	}
	if comps["cache"].kills != 1 || comps["proxy"].kills != 1 {
		t.Fatal("subtree reboot missed a dependent")
	}
	if comps["core"].kills != 0 || comps["logger"].kills != 0 {
		t.Fatal("subtree reboot touched components outside the subtree")
	}
	if tree.Reboots("cache") != 1 || tree.Reboots("proxy") != 1 {
		t.Fatalf("reboot counters: cache %d, proxy %d, want 1/1", tree.Reboots("cache"), tree.Reboots("proxy"))
	}
	before := map[string]int{}
	for name, c := range comps {
		before[name] = c.kills
	}
	if err := tree.Reboot("core", true, nil); err != nil {
		t.Fatalf("widened root Reboot: %v", err)
	}
	for name, c := range comps {
		if c.kills != before[name]+1 {
			t.Fatalf("widened root reboot killed %s %d times, want once", name, c.kills-before[name])
		}
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
	if err := tree.Reboot("cache", false, nil); err != nil {
		t.Fatalf("Reboot: %v", err)
	}
	if clock.Now()-before != 5*time.Millisecond {
		t.Fatalf("restart charged %s", clock.Now()-before)
	}
	if !tree.Running("cache") || tree.Reboots("cache") != 1 {
		t.Fatal("cache not back up or not counted")
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
	s.Put("b", "word", "seven")
	if n := s.Incr("b", "word"); n != 1 {
		t.Fatalf("Incr of a non-integer value = %d, want 1", n)
	}
	s.Put("b", "big", "41")
	if n := s.Incr("b", "big"); n != 42 {
		t.Fatalf("Incr of \"41\" = %d, want 42", n)
	}
	if v, _ := s.Get("b", "big"); v != "42" {
		t.Fatalf("stored value after Incr = %q, want \"42\"", v)
	}
	if n := s.Incr("fresh", "seq"); n != 1 {
		t.Fatalf("Incr in a missing bucket = %d, want 1", n)
	}
	// A missing key counts as zero without a parse: the only allocations
	// left are the map's occasional growth, well under one per call.
	keys := make([]string, 1001)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	next := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Incr("fresh", keys[next])
		next++
	}); allocs != 0 {
		t.Errorf("Incr of a missing key: %v allocations per call, want 0", allocs)
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
