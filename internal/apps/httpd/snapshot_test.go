package httpd

import (
	"encoding/json"
	"testing"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// stateOf reads the server's logical state into the snapshot's state
// struct. Rendered as JSON it is the reference the binary codec is checked
// against.
func stateOf(s *Server) serverState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return serverState{
		MemBytes:   s.memBytes,
		LeakUnits:  s.leakUnits,
		LeakFDWant: s.leakFDWant,
		Requests:   s.requests,
		CacheBytes: s.cacheBytes,
	}
}

func renderState(t *testing.T, s *Server) string {
	t.Helper()
	b, err := json.Marshal(stateOf(s))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func fuzzServer() *Server {
	env := simenv.New(5, simenv.WithFDLimit(256))
	return New(env, faultinject.NewSet(MechMemoryLeakHup, MechLoadResourceLeak, MechFDExhaustion))
}

// FuzzSnapshotRoundTrip drives a server through an op sequence drawn from
// the input, then checks that Snapshot → Stop → Restore into a fresh server
// yields the same logical state as restoring the JSON rendering of the
// state struct. The raw input, fed to Restore, must fail or restore without
// panicking.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 0, 0, 0, 4, 0, 0, 0, 4, 1, 2})
	if snap, err := fuzzServer().Snapshot(); err == nil {
		f.Add(snap)
	}
	paths := []string{"/", "/index.html", "/pub/", "/proxy/a", "/missing"}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = fuzzServer().Restore(data)

		srv := fuzzServer()
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			if b%8 == 7 {
				_ = srv.Signal(SigHUP)
				continue
			}
			_, _ = srv.Serve(Request{Method: "GET", Path: paths[int(b)%len(paths)]})
		}
		ref, err := json.Marshal(stateOf(srv))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := srv.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		srv.Stop()

		got := fuzzServer()
		gotErr := got.Restore(snap)
		var st serverState
		if err := json.Unmarshal(ref, &st); err != nil {
			t.Fatal(err)
		}
		want := fuzzServer()
		wantErr := want.restoreState(st)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("restore err = %v, reference err = %v", gotErr, wantErr)
		}
		if g, w := renderState(t, got), renderState(t, want); g != w {
			t.Errorf("restored state\n got %s\nwant %s", g, w)
		}
		if g := renderState(t, got); g != string(ref) {
			t.Errorf("restored state %s, snapshot taken of %s", g, ref)
		}
	})
}
