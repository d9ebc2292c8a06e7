package cache

import (
	"strings"
	"testing"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

func newServer(t *testing.T, faults *faultinject.Set, cfg Config) *Server {
	t.Helper()
	env := simenv.New(1, simenv.WithFDLimit(64))
	srv := New(env, faults, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return srv
}

func TestLifecycleAndBasicOps(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(), Config{})
	if err := srv.Start(); err == nil {
		t.Error("second start should fail")
	}
	if v, err := srv.Get("motd"); err != nil || v != "welcome to cached" {
		t.Fatalf("warm get = %q, %v", v, err)
	}
	if err := srv.Set("k", "v"); err != nil {
		t.Fatalf("set: %v", err)
	}
	if v, err := srv.Get("k"); err != nil || v != "v" {
		t.Fatalf("get after set = %q, %v", v, err)
	}
	if v, err := srv.Get("absent"); err != nil || v != "" {
		t.Fatalf("miss = %q, %v", v, err)
	}
	if err := srv.Del("k"); err != nil {
		t.Fatalf("del: %v", err)
	}
	if v, _ := srv.Get("k"); v != "" {
		t.Errorf("get after del = %q", v)
	}
	stats, err := srv.Stats()
	if err != nil || !strings.Contains(stats, "hits=") {
		t.Fatalf("stats = %q, %v", stats, err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(srv.items) != 0 {
		t.Errorf("len after flush = %d", len(srv.items))
	}
	if srv.requests == 0 {
		t.Error("requests not counted")
	}
	srv.Stop()
	srv.Stop() // idempotent
	if _, err := srv.Get("motd"); err == nil {
		t.Error("get on a stopped daemon should fail")
	}
	if err := srv.Set("k", "v"); err == nil {
		t.Error("set on a stopped daemon should fail")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(), Config{Capacity: 4})
	// Warm content is motd+version (LRU order: motd first). Fill to capacity,
	// then touch motd so version becomes the eviction victim.
	if err := srv.Set("k1", "v"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Set("k2", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Get("motd"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Set("k3", "v"); err != nil {
		t.Fatal(err)
	}
	if len(srv.items) != 4 {
		t.Fatalf("len = %d, want 4 (capacity)", len(srv.items))
	}
	if v, _ := srv.Get("version"); v != "" {
		t.Errorf("LRU victim survived: version = %q", v)
	}
	if v, _ := srv.Get("motd"); v == "" {
		t.Error("recently touched motd was evicted")
	}
	// Overwriting an existing key at capacity must not evict.
	if err := srv.Set("k1", "v2"); err != nil {
		t.Fatal(err)
	}
	if len(srv.items) != 4 {
		t.Errorf("len after overwrite = %d", len(srv.items))
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(), Config{})
	if err := srv.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Get("k"); err != nil {
		t.Fatal(err)
	}
	keys, reqs := len(srv.items), srv.requests
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Diverge, then roll back.
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore(snap); err == nil {
		t.Error("restore while running should fail")
	}
	srv.Stop()
	if err := srv.Restore([]byte("not json")); err == nil {
		t.Error("restore of a bad snapshot should fail")
	}
	if err := srv.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !srv.Running() {
		t.Fatal("daemon not running after restore")
	}
	if got := len(srv.items); got != keys {
		t.Errorf("%d keys after restore, want %d", got, keys)
	}
	if srv.requests != reqs {
		t.Errorf("requests after restore = %d, want %d", srv.requests, reqs)
	}
	if v, err := srv.Get("k"); err != nil || v != "v" {
		t.Errorf("get after restore = %q, %v", v, err)
	}
}

func TestRestoreReopensHeldDescriptors(t *testing.T) {
	// A generic recovery restores every resource the state says the daemon
	// held — leaked connection descriptors included.
	srv := newServer(t, faultinject.NewSet(MechConnFDLeak), Config{})
	for i := 0; i < 3; i++ {
		if _, err := srv.Get("motd"); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	srv.mu.Lock()
	held := len(srv.connFDs)
	srv.mu.Unlock()
	if held != 3 {
		t.Fatalf("held descriptors = %d, want 3", held)
	}
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if err := srv.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	srv.mu.Lock()
	held = len(srv.connFDs)
	srv.mu.Unlock()
	if held != 3 {
		t.Errorf("descriptors after restore = %d, want 3 (faithfully re-leaked)", held)
	}
}

func TestResetDiscardsAccumulatedState(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechConnFDLeak), Config{})
	for i := 0; i < 3; i++ {
		if _, err := srv.Get("motd"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Reset(); err == nil {
		t.Error("reset while running should fail")
	}
	srv.Stop()
	if err := srv.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	srv.mu.Lock()
	held, want := len(srv.connFDs), srv.connFDWant
	srv.mu.Unlock()
	if held != 0 || want != 0 {
		t.Errorf("reset kept leaks: fds=%d want=%d", held, want)
	}
	if srv.requests != 0 {
		t.Errorf("requests after reset = %d", srv.requests)
	}
	if v, err := srv.Get("motd"); err != nil || v != "welcome to cached" {
		t.Errorf("pristine content missing after reset: %q, %v", v, err)
	}
}

func TestDegradedModeSuspendsEnvironmentPaths(t *testing.T) {
	// A flapping resolver fails miss fills on a healthy daemon; degraded mode
	// keeps serving from the local index instead.
	env := simenv.New(1)
	srv := New(env, faultinject.NewSet(MechPeerDNSFlap), Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	env.DNS().AddHost(peerHost, "10.9.9.9")
	env.DNS().Fail(healTTR)
	if _, err := srv.Get("missing"); err == nil {
		t.Fatal("miss fill should fail while the resolver flaps")
	}
	srv.SetDegraded(true)
	if !srv.degraded {
		t.Fatal("degraded flag not set")
	}
	if _, err := srv.Get("missing"); err != nil {
		t.Errorf("degraded miss should skip the peer fill: %v", err)
	}
	if v, err := srv.Get("motd"); err != nil || v == "" {
		t.Errorf("degraded hit = %q, %v", v, err)
	}
	srv.SetDegraded(false)
}

func TestCrashMechanismStopsTheDaemon(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechEmptyKeyDeref), Config{})
	_, err := srv.Get("")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechEmptyKeyDeref {
		t.Fatalf("empty-key get = %v", err)
	}
	if srv.Running() {
		t.Fatal("daemon alive after seeded crash")
	}
	if _, err := srv.Get("motd"); err == nil {
		t.Error("crashed daemon still serving")
	}
}

func TestScenariosCoverEveryMechanism(t *testing.T) {
	env := simenv.New(1)
	srv := New(env, faultinject.NewSet(), Config{})
	for _, m := range Mechanisms {
		key := m.Key
		sc, ok := Scenario(srv, key)
		if !ok {
			t.Errorf("mechanism %s has no scenario", key)
			continue
		}
		if sc.Mechanism != key {
			t.Errorf("scenario for %s names %s", key, sc.Mechanism)
		}
		if len(sc.Ops) == 0 {
			t.Errorf("scenario %s has no ops", key)
		}
	}
	if _, ok := Scenario(srv, "cache/no-such-bug"); ok {
		t.Error("unregistered mechanism cache/no-such-bug has a scenario")
	}
}

func TestEveryScenarioTriggersItsMechanism(t *testing.T) {
	for _, m := range Mechanisms {
		key := m.Key
		t.Run(key, func(t *testing.T) {
			env := simenv.New(7, simenv.WithFDLimit(64))
			srv := New(env, faultinject.NewSet(key), Config{})
			if err := srv.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			sc, _ := Scenario(srv, key)
			if sc.Stage != nil {
				sc.Stage()
			}
			var failure *faultinject.FailureError
			for _, op := range sc.Ops {
				if err := op.Do(); err != nil {
					fe, ok := faultinject.AsFailure(err)
					if !ok {
						t.Fatalf("op %s returned non-failure error: %v", op.Name, err)
					}
					failure = fe
					break
				}
			}
			if failure == nil {
				t.Fatalf("scenario never triggered %s", key)
			}
			if failure.Mechanism != key {
				t.Errorf("scenario for %s triggered %s", key, failure.Mechanism)
			}
		})
	}
}

func TestLatentBugsStayQuietOffTrigger(t *testing.T) {
	// A daemon carrying several latent bugs serves benign traffic untouched;
	// each defect fires only on its own trigger.
	srv := newServer(t, faultinject.NewSet(
		MechEmptyKeyDeref, MechTTLParseLoop, MechBigValueBounds, MechFlushDoubleFree,
	), Config{})
	if err := srv.Set("k", "v"); err != nil {
		t.Fatalf("benign set: %v", err)
	}
	if _, err := srv.Get("k"); err != nil {
		t.Fatalf("benign get: %v", err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatalf("single flush: %v", err)
	}
	if err := srv.Set("k", "v"); err != nil {
		t.Fatalf("set after flush: %v", err)
	}
	if !srv.Running() {
		t.Fatal("daemon died on benign traffic")
	}
}
