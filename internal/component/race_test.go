package component

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lockedClock is a fakeClock safe for concurrent Advance — the race tests
// reboot from several goroutines at once.
type lockedClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *lockedClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// TestConcurrentRebootWhileSiblingsServe drives one component through
// repeated microreboots while goroutines keep "serving" through its siblings
// and the externalized store. Run under -race, this is the crash-only
// contract's concurrency proof: a mid-reboot component never blocks or
// corrupts siblings or sessions.
func TestConcurrentRebootWhileSiblingsServe(t *testing.T) {
	clock := &lockedClock{}
	tree := NewTree(clock)
	store := NewStore()
	comps := []*fakeComp{
		{name: "core"},
		{name: "flaky"},
		{name: "sibling"},
	}
	tree.MustAdd(Spec{Component: comps[0], StartCost: time.Millisecond})
	tree.MustAdd(Spec{Component: comps[1], Deps: []string{"core"}, StartCost: time.Millisecond})
	tree.MustAdd(Spec{Component: comps[2], Deps: []string{"core"}, StartCost: time.Millisecond})
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}

	const (
		rebooters = 2
		servers   = 4
		rounds    = 200
	)
	var served, refused atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < rebooters; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := tree.Reboot("flaky", false, nil); err != nil {
					t.Errorf("Reboot: %v", err)
					return
				}
			}
		}()
	}
	for s := 0; s < servers; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := []string{"alice", "bob", "carol", "dave"}[id]
			for i := 0; i < rounds; i++ {
				// A request routed through the flaky component is refused
				// while it is mid-reboot; siblings must always serve.
				if !tree.Running("flaky") {
					refused.Add(1)
				}
				if !tree.Running("sibling") || !tree.Running("core") {
					t.Errorf("sibling or core went down during a leaf reboot")
					return
				}
				store.Incr("sessions", key)
				served.Add(1)
			}
		}(s)
	}
	wg.Wait()

	if !tree.AllRunning() {
		t.Fatal("tree not fully up after the storm")
	}
	if got := tree.Reboots("flaky"); got != rebooters*rounds {
		t.Fatalf("flaky reboots = %d, want %d", got, rebooters*rounds)
	}
	if served.Load() != servers*rounds {
		t.Fatalf("served = %d, want %d", served.Load(), servers*rounds)
	}
	// Sessions survived every reboot: the store is outside the components.
	total := int64(0)
	for _, k := range store.Keys("sessions") {
		v, _ := store.Get("sessions", k)
		var n int64
		for _, ch := range v {
			n = n*10 + int64(ch-'0')
		}
		total += n
	}
	if total != servers*rounds {
		t.Fatalf("session increments = %d, want %d", total, servers*rounds)
	}
}

// TestConcurrentStoreAccess hammers the store from many goroutines; run
// under -race it proves the externalized state is safe to share between a
// rebooting component and its serving siblings.
func TestConcurrentStoreAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := string(rune('a' + id))
			for i := 0; i < 500; i++ {
				s.Incr("counters", key)
				s.Put("scratch", key, "v")
				s.Get("scratch", key)
				if i%100 == 0 {
					if _, err := s.Snapshot(); err != nil {
						t.Errorf("Snapshot: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range s.Keys("counters") {
		if v, _ := s.Get("counters", k); v != "500" {
			t.Fatalf("counter %s = %s, want 500", k, v)
		}
	}
}

// TestWindowedRebootUnlocksTree reboots a subtree with a window that reads
// the tree the way a serving sweep does, from the rebooting goroutine and
// from a concurrent one. Run under -race it proves the window runs with the
// tree unlocked (a locked window would deadlock on Running and Probe), and
// that a member whose Start fails does not keep its later siblings down.
func TestWindowedRebootUnlocksTree(t *testing.T) {
	tree := NewTree(&lockedClock{})
	failing := NewPart("cache", Hooks{OnStart: func() error { return errors.New("disk full") }})
	for _, spec := range []Spec{
		{Component: NewPart("core", Hooks{}), StartCost: time.Millisecond},
		{Component: NewPart("logger", Hooks{}), Deps: []string{"core"}, StartCost: 2 * time.Millisecond},
		{Component: NewPart("web", Hooks{}), StartCost: 3 * time.Millisecond},
		{Component: failing, Deps: []string{"web"}, StartCost: 4 * time.Millisecond},
		{Component: NewPart("proxy", Hooks{}), Deps: []string{"cache"}, StartCost: 5 * time.Millisecond},
	} {
		tree.MustAdd(spec)
	}
	if err := tree.StartAll(); err == nil {
		t.Fatal("StartAll: cache start failure not reported")
	}
	var windows int
	err := tree.Reboot("web", true, func(cost time.Duration) {
		windows++
		if cost != 12*time.Millisecond {
			t.Errorf("window cost = %s, want the web subtree's 12ms", cost)
		}
		if tree.Running("web") || tree.Running("proxy") {
			t.Error("subtree member up inside the window")
		}
		if !tree.Running("core") || !tree.Running("logger") {
			t.Error("sibling outside the subtree down inside the window")
		}
		if findings := tree.Probe(); findings["web"] == nil || findings["core"] != nil {
			t.Errorf("probe inside the window = %v", findings)
		}
		done := make(chan bool)
		go func() { done <- tree.Running("logger") }()
		if !<-done {
			t.Error("concurrent reader saw logger down")
		}
	})
	if err == nil {
		t.Fatal("Reboot: cache start failure not reported")
	}
	if windows != 1 {
		t.Fatalf("window ran %d times, want 1", windows)
	}
	if !tree.Running("web") || !tree.Running("proxy") {
		t.Fatal("a failed member kept its later siblings down")
	}
	if tree.Running("cache") {
		t.Fatal("cache up despite its failing Start")
	}
}

// TestRebootWindowPanicLeavesTreeUsable panics inside a reboot window, as
// application code serving arrivals there may. The panic must reach the
// caller as an ordinary recoverable panic, with the tree unlocked and the
// rebooting member still down.
func TestRebootWindowPanicLeavesTreeUsable(t *testing.T) {
	tree := NewTree(&lockedClock{})
	tree.MustAdd(Spec{Component: NewPart("core", Hooks{}), StartCost: time.Millisecond})
	if err := tree.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("window panic not propagated")
			}
		}()
		_ = tree.Reboot("core", false, func(time.Duration) { panic("arrival handler") })
	}()
	if tree.Running("core") {
		t.Error("core up after a reboot whose window panicked")
	}
	if err := tree.Restart("core"); err != nil || !tree.Running("core") {
		t.Errorf("tree unusable after the panic: %v", err)
	}
}
