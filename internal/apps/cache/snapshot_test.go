package cache

import (
	"encoding/json"
	"maps"
	"testing"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// stateOf reads the daemon's logical state into the snapshot's state
// struct. Rendered as JSON it is the reference the binary codec is checked
// against.
func stateOf(s *Server) serverState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return serverState{
		Items:       maps.Clone(s.items),
		LRU:         append([]string(nil), s.lru...),
		Requests:    s.requests,
		Gets:        s.gets,
		Hits:        s.hits,
		ShadowBytes: s.shadowBytes,
		ConnFDWant:  s.connFDWant,
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
	env := simenv.New(3, simenv.WithFDLimit(512))
	return New(env, faultinject.NewSet(MechConnFDLeak, MechShadowCopyLeak), Config{Capacity: 4})
}

// fuzzText draws a short valid-UTF-8 string from the input. Only valid
// UTF-8 can be compared through JSON, which rewrites invalid bytes.
func fuzzText(b byte) string {
	alphabet := []string{"", "a", "b", "é", "=", " ", "\x00", "ttl"}
	return alphabet[b%8] + alphabet[(b/8)%8]
}

// FuzzSnapshotRoundTrip drives a daemon through an op sequence drawn from
// the input, then checks that Snapshot → Stop → Restore into a fresh daemon
// yields the same logical state as restoring the JSON rendering of the
// state struct. The raw input, fed to Restore, must fail or restore without
// panicking.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{0, 9, 18, 27, 36, 45, 54, 63, 3, 4})
	f.Add([]byte{1, 1, 1, 1, 1, 2, 2, 4, 4})
	if snap, err := fuzzServer().Snapshot(); err == nil {
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = fuzzServer().Restore(data)

		srv := fuzzServer()
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(data); i += 2 {
			key, arg := fuzzText(data[i]>>3), fuzzText(data[i+1])
			switch data[i] % 8 {
			case 0, 1, 2:
				_ = srv.Set(key, arg)
			case 3, 4:
				_, _ = srv.Get(key)
			case 5:
				_ = srv.Del(key)
			case 6:
				_, _ = srv.Stats()
			case 7:
				_ = srv.Flush()
			}
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
