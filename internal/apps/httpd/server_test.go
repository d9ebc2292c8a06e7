package httpd

import (
	"errors"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

func newServer(t *testing.T, faults *faultinject.Set, opts ...simenv.Option) *Server {
	t.Helper()
	env := simenv.New(42, opts...)
	srv := New(env, faults)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return srv
}

func TestHealthyServing(t *testing.T) {
	srv := newServer(t, nil)
	resp, err := srv.Serve(Request{Method: "GET", Path: "/index.html"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(resp.Body, "It works") {
		t.Errorf("resp = %+v", resp)
	}
	// 404s, directory listings, proxied and CGI requests all succeed.
	resp, err = srv.Serve(Request{Method: "GET", Path: "/missing"})
	if err != nil || resp.Status != 404 {
		t.Errorf("404 path: %+v, %v", resp, err)
	}
	resp, err = srv.Serve(Request{Method: "GET", Path: "/pub/"})
	if err != nil || !strings.Contains(resp.Body, "file1.tar.gz") {
		t.Errorf("listing: %+v, %v", resp, err)
	}
	resp, err = srv.Serve(Request{Method: "GET", Path: "/empty/"})
	if err != nil || resp.Status != 200 {
		t.Errorf("empty listing: %+v, %v", resp, err)
	}
	if _, err := srv.Serve(Request{Method: "GET", Path: "/proxy/page"}); err != nil {
		t.Errorf("proxy: %v", err)
	}
	if _, err := srv.Serve(Request{Method: "GET", Path: "/cgi-bin/env"}); err != nil {
		t.Errorf("cgi: %v", err)
	}
	// Healthy HUP rejuvenates without error.
	if err := srv.Signal(SigHUP); err != nil {
		t.Errorf("HUP: %v", err)
	}
}

func TestHealthyServerSurvivesLongWorkload(t *testing.T) {
	srv := newServer(t, nil)
	for i := 0; i < 500; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i%50 == 49 {
			if _, err := srv.Serve(Request{Method: "GET", Path: "/cgi-bin/env"}); err != nil {
				t.Fatalf("cgi %d: %v", i, err)
			}
		}
	}
	if srv.Env().Procs().OwnedBy(Owner) != 0 {
		t.Error("healthy server leaked child processes")
	}
	if srv.memBytes != 0 {
		t.Error("healthy server leaked memory")
	}
}

func TestLifecycleErrors(t *testing.T) {
	srv := newServer(t, nil)
	if err := srv.Start(); err == nil {
		t.Error("double start should fail")
	}
	srv.Stop()
	srv.Stop() // idempotent
	if _, err := srv.Serve(Request{Path: "/"}); err == nil {
		t.Error("serve while stopped should fail")
	}
	if err := srv.Signal(SigHUP); err == nil {
		t.Error("signal while stopped should fail")
	}
	if err := srv.Start(); err != nil {
		t.Errorf("restart: %v", err)
	}
}

func TestStopReleasesEnvironment(t *testing.T) {
	env := simenv.New(1)
	srv := New(env, nil)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if n := env.FDs().OwnedBy(Owner); n != 0 {
		t.Errorf("stop left %d fds", n)
	}
	if err := env.Net().BindPort(80, "probe"); err != nil {
		t.Errorf("stop left port 80 bound: %v", err)
	}
}

func failFrom(t *testing.T, err error) *faultinject.FailureError {
	t.Helper()
	fe, ok := faultinject.AsFailure(err)
	if !ok {
		t.Fatalf("error %v is not a FailureError", err)
	}
	return fe
}

func TestLongURLOverflow(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechLongURLOverflow))
	_, err := srv.Serve(Request{Method: "GET", Path: "/" + strings.Repeat("a", 9000)})
	fe := failFrom(t, err)
	if fe.Mechanism != MechLongURLOverflow || fe.Symptom != taxonomy.SymptomCrash {
		t.Errorf("failure = %+v", fe)
	}
	if srv.Running() {
		t.Error("server should be down after the crash")
	}
	// Short URLs never trigger it.
	srv2 := newServer(t, faultinject.NewSet(MechLongURLOverflow))
	if _, err := srv2.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
		t.Errorf("short URL: %v", err)
	}
}

func TestSighupCrash(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechSighupCrash))
	err := srv.Signal(SigHUP)
	fe := failFrom(t, err)
	if fe.Mechanism != MechSighupCrash {
		t.Errorf("failure = %+v", fe)
	}
}

func TestValistReuse(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechValistReuse))
	_, err := srv.Serve(Request{Method: "GET", Path: "/definitely-not-here"})
	if fe := failFrom(t, err); fe.Mechanism != MechValistReuse {
		t.Errorf("failure = %+v", fe)
	}
	// Existing documents are unaffected.
	srv2 := newServer(t, faultinject.NewSet(MechValistReuse))
	if _, err := srv2.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
		t.Errorf("existing doc: %v", err)
	}
}

func TestPallocZero(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechPallocZero))
	if _, err := srv.Serve(Request{Method: "GET", Path: "/pub/"}); err != nil {
		t.Errorf("nonempty dir: %v", err)
	}
	_, err := srv.Serve(Request{Method: "GET", Path: "/empty/"})
	if fe := failFrom(t, err); fe.Mechanism != MechPallocZero {
		t.Errorf("failure = %+v", fe)
	}
}

func TestMemoryLeakHup(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechMemoryLeakHup))
	// Below the limit a HUP is survivable (and frees the leak).
	for i := 0; i < 10; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.memBytes == 0 {
		t.Fatal("leak not accumulating")
	}
	if err := srv.Signal(SigHUP); err != nil {
		t.Fatalf("early HUP: %v", err)
	}
	if srv.memBytes != 0 {
		t.Error("rejuvenation should free the leak")
	}
	// Past the limit the HUP kills the server.
	for i := 0; i < 500; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			t.Fatal(err)
		}
	}
	err := srv.Signal(SigHUP)
	if fe := failFrom(t, err); fe.Mechanism != MechMemoryLeakHup {
		t.Errorf("failure = %+v", fe)
	}
}

func TestGenericEIBugs(t *testing.T) {
	tests := []struct {
		key     string
		symptom taxonomy.Symptom
	}{
		{MechNullDeref, taxonomy.SymptomCrash},
		{MechBounds, taxonomy.SymptomCrash},
		{MechBadInit, taxonomy.SymptomError},
		{MechParseLoop, taxonomy.SymptomHang},
		{MechTypeMismatch, taxonomy.SymptomCrash},
		{MechMissingCheck, taxonomy.SymptomCrash},
		{MechDoubleFree, taxonomy.SymptomCrash},
		{MechWrongStatus, taxonomy.SymptomError},
	}
	for _, tt := range tests {
		srv := newServer(t, faultinject.NewSet(tt.key))
		path := "/bug/" + strings.TrimPrefix(tt.key, "httpd/")
		_, err := srv.Serve(Request{Method: "GET", Path: path})
		fe := failFrom(t, err)
		if fe.Mechanism != tt.key || fe.Symptom != tt.symptom {
			t.Errorf("%s: failure = %+v", tt.key, fe)
		}
		// The same path on a fault-free server is an ordinary 404.
		clean := newServer(t, nil)
		if resp, err := clean.Serve(Request{Method: "GET", Path: path}); err != nil || resp.Status != 404 {
			t.Errorf("%s clean: %+v, %v", tt.key, resp, err)
		}
	}
}

func TestFDExhaustion(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechFDExhaustion), simenv.WithFDLimit(20))
	var failure error
	for i := 0; i < 30; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			failure = err
			break
		}
	}
	if fe := failFrom(t, failure); fe.Mechanism != MechFDExhaustion {
		t.Errorf("failure = %+v", fe)
	}
}

func TestDiskCacheFull(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechDiskCacheFull))
	if err := srv.Env().Disk().FillFrom("tenant", 3*4096); err != nil {
		t.Fatal(err)
	}
	var failure error
	for i := 0; i < 10; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/proxy/p"}); err != nil {
			failure = err
			break
		}
	}
	if fe := failFrom(t, failure); fe.Mechanism != MechDiskCacheFull {
		t.Errorf("failure = %+v", fe)
	}
}

func TestLogFileLimitBugVsHealthyRotation(t *testing.T) {
	// Buggy server: fails when the log hits the per-file limit.
	env := simenv.New(1, simenv.WithMaxFileSize(1024), simenv.WithDiskBytes(1<<20))
	srv := New(env, faultinject.NewSet(MechLogFileLimit))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var failure error
	for i := 0; i < 20; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			failure = err
			break
		}
	}
	if fe := failFrom(t, failure); fe.Mechanism != MechLogFileLimit {
		t.Errorf("failure = %+v", fe)
	}

	// Healthy server: rotates and survives indefinitely.
	env2 := simenv.New(1, simenv.WithMaxFileSize(1024), simenv.WithDiskBytes(1<<20))
	srv2 := New(env2, nil)
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := srv2.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			t.Fatalf("healthy rotation failed at %d: %v", i, err)
		}
	}
}

func TestFSFull(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechFSFull))
	if err := srv.Env().Disk().FillFrom("tenant", 64); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Serve(Request{Method: "GET", Path: "/index.html"})
	if fe := failFrom(t, err); fe.Mechanism != MechFSFull {
		t.Errorf("failure = %+v", fe)
	}
}

func TestNetResource(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechNetResource))
	srv.Env().Net().SetResourceCap(4)
	for i := 0; i < 4; i++ {
		if err := srv.Env().Net().AcquireResource(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := srv.Serve(Request{Method: "GET", Path: "/index.html"})
	if fe := failFrom(t, err); fe.Mechanism != MechNetResource {
		t.Errorf("failure = %+v", fe)
	}
}

func TestPCMCIARemoval(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechPCMCIARemoval))
	srv.Env().Net().RemoveInterface()
	_, err := srv.Serve(Request{Method: "GET", Path: "/index.html"})
	if fe := failFrom(t, err); fe.Mechanism != MechPCMCIARemoval {
		t.Errorf("failure = %+v", fe)
	}
}

func TestDNSErrorAndHealing(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechDNSError))
	env := srv.Env()
	env.DNS().AddHost("c.example.com", "10.0.0.1")
	env.DNS().Fail(time.Minute)
	req := Request{Method: "GET", Path: "/index.html", Host: "c.example.com"}
	_, err := srv.Serve(req)
	if fe := failFrom(t, err); fe.Mechanism != MechDNSError {
		t.Errorf("failure = %+v", fe)
	}
	env.Advance(2 * time.Minute)
	if _, err := srv.Serve(req); err != nil {
		t.Errorf("request after DNS healed: %v", err)
	}
}

func TestDNSSlow(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechDNSSlow))
	env := srv.Env()
	env.DNS().AddHost("c.example.com", "10.0.0.1")
	env.DNS().Slow(time.Minute)
	_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", Host: "c.example.com"})
	fe := failFrom(t, err)
	if fe.Mechanism != MechDNSSlow || fe.Symptom != taxonomy.SymptomHang {
		t.Errorf("failure = %+v", fe)
	}
}

func TestProcTableFull(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechProcTableFull), simenv.WithProcLimit(20))
	var failure error
	for i := 0; i < 40; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/cgi-bin/env"}); err != nil {
			failure = err
			break
		}
	}
	if fe := failFrom(t, failure); fe.Mechanism != MechProcTableFull {
		t.Errorf("failure = %+v", fe)
	}
	// Killing the application's processes (what recovery does) clears the
	// condition.
	srv.Env().ReclaimOwner(Owner)
	if srv.Env().Procs().OwnedBy(Owner) != 0 {
		t.Error("reclaim left processes behind")
	}
}

func TestClientAbortRace(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechClientAbort))
	srv.Env().Sched().Force(MechClientAbort, 0)
	_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", AbortMidway: true})
	if fe := failFrom(t, err); fe.Mechanism != MechClientAbort {
		t.Errorf("failure = %+v", fe)
	}
	// With the losing interleaving unpinned the abort usually survives.
	srv2 := newServer(t, faultinject.NewSet(MechClientAbort))
	srv2.Env().Sched().Force(MechClientAbort, 1)
	if _, err := srv2.Serve(Request{Method: "GET", Path: "/index.html", AbortMidway: true}); err != nil {
		t.Errorf("winning interleaving: %v", err)
	}
}

func TestPortSquat(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechPortSquat))
	for i := 0; i < 3; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/cgi-bin/env"}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	err := srv.Start()
	if fe := failFrom(t, err); fe.Mechanism != MechPortSquat {
		t.Errorf("failure = %+v", fe)
	}
	// Recovery kills the children and frees the port.
	srv.Env().ReclaimOwner(Owner)
	srv.children = nil
	if err := srv.Start(); err != nil {
		t.Errorf("start after reclaim: %v", err)
	}
}

func TestSlowNetwork(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechSlowNetwork))
	srv.Env().Net().SlowFor(time.Minute)
	_, err := srv.Serve(Request{Method: "GET", Path: "/index.html"})
	if fe := failFrom(t, err); fe.Mechanism != MechSlowNetwork {
		t.Errorf("failure = %+v", fe)
	}
	srv.Env().Advance(2 * time.Minute)
	if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
		t.Errorf("after healing: %v", err)
	}
}

func TestEntropyStarved(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechEntropyStarved))
	srv.Env().Entropy().Drain()
	_, err := srv.Serve(Request{Method: "GET", Path: "/x", SSL: true})
	if fe := failFrom(t, err); fe.Mechanism != MechEntropyStarved {
		t.Errorf("failure = %+v", fe)
	}
	srv.Env().Advance(time.Minute)
	if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html", SSL: true}); err != nil {
		t.Errorf("after refill: %v", err)
	}
}

func TestSnapshotRestorePreservesLeaks(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechLoadResourceLeak))
	for i := 0; i < 10; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if err := srv.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if srv.leakUnits != 10 {
		t.Errorf("leakUnits after restore = %d, want 10 (generic recovery preserves state)", srv.leakUnits)
	}
	if srv.requests != 10 {
		t.Errorf("requests after restore = %d", srv.requests)
	}
}

func TestSnapshotRestorePreservesHeldFDs(t *testing.T) {
	env := simenv.New(9, simenv.WithFDLimit(30))
	srv := New(env, faultinject.NewSet(MechFDExhaustion))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			t.Fatal(err)
		}
	}
	held := env.FDs().OwnedBy(Owner)
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	env.ReclaimOwner(Owner) // the failed primary's descriptors are freed...
	if err := srv.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// ...but the restored state re-acquires every one of them.
	if got := env.FDs().OwnedBy(Owner); got != held {
		t.Errorf("restored fd count = %d, want %d", got, held)
	}
}

func TestResetDropsState(t *testing.T) {
	srv := newServer(t, faultinject.NewSet(MechLoadResourceLeak))
	for i := 0; i < 10; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	if err := srv.Reset(); err != nil {
		t.Fatal(err)
	}
	if srv.leakUnits != 0 || srv.requests != 0 {
		t.Error("reset should drop accumulated state")
	}
	if !srv.Running() {
		t.Error("reset should leave the server running")
	}
}

func TestRestoreWhileRunningFails(t *testing.T) {
	srv := newServer(t, nil)
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore(snap); err == nil {
		t.Error("restore while running should fail")
	}
	if err := srv.Reset(); err == nil {
		t.Error("reset while running should fail")
	}
	if err := srv.Restore([]byte("not json")); !errors.Is(err, err) || err == nil {
		t.Error("bad snapshot should fail")
	}
}

func TestScenariosCoverEveryMechanism(t *testing.T) {
	env := simenv.New(1)
	srv := New(env, faultinject.NewSet())
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
	if _, ok := Scenario(srv, "httpd/no-such-bug"); ok {
		t.Error("unregistered mechanism httpd/no-such-bug has a scenario")
	}
}

func TestEveryScenarioTriggersItsMechanism(t *testing.T) {
	for _, m := range Mechanisms {
		key := m.Key
		t.Run(key, func(t *testing.T) {
			env := simenv.New(7, simenv.WithFDLimit(64), simenv.WithProcLimit(64))
			srv := New(env, faultinject.NewSet(key))
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

func TestMultipleFaultsCoexist(t *testing.T) {
	// A server can carry several latent bugs at once; each fires only on its
	// own trigger, exactly like a real release with many seeded defects.
	srv := newServer(t, faultinject.NewSet(MechLongURLOverflow, MechPallocZero, MechValistReuse))
	if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
		t.Fatalf("benign request: %v", err)
	}
	if _, err := srv.Serve(Request{Method: "GET", Path: "/pub/"}); err != nil {
		t.Fatalf("nonempty listing: %v", err)
	}
	_, err := srv.Serve(Request{Method: "GET", Path: "/empty/"})
	if fe := failFrom(t, err); fe.Mechanism != MechPallocZero {
		t.Errorf("wrong fault fired: %v", fe)
	}
}
