package component_test

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/component"
	"faultstudy/internal/simenv"
)

// fuzzRoutes are the requests the fuzz target serves, each with the parts it
// routes through (the logger is never on a route: a down logger degrades to
// unlogged serving).
var fuzzRoutes = []struct {
	path  string
	route []string
}{
	{"/index.html", []string{httpd.CompListener, httpd.CompCore}},
	{"/proxy/page", []string{httpd.CompListener, httpd.CompCore, httpd.CompCache}},
	{"/cgi-bin/env", []string{httpd.CompListener, httpd.CompCore, httpd.CompCGI}},
}

// FuzzComponentTree drives a componentized web server through a sequence of
// StartAll, Kill, Reboot and Serve operations decoded from the input and
// checks the crash-only contract after every step: a request routed through
// a down part fails with a DownError naming a down part on its route, and
// one whose route is up is served; the externalized store's entries survive
// every kill and reboot; killing a down part is a no-op; StartAll leaves
// every part running.
func FuzzComponentTree(f *testing.F) {
	// Parts in tree order: core, listener, logger, cache, cgi.
	f.Add([]byte{3, 0, 1, 3, 3, 1, 0, 3, 1})    // kill the cache, serve a proxy request, StartAll
	f.Add([]byte{1, 0, 1, 0, 3, 0x10, 0})       // kill core twice, serve, StartAll
	f.Add([]byte{3, 0x10, 2, 0x28, 2, 0x14, 3}) // widened core reboot and a cgi reboot, each serving in its window
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		c := httpd.Componentize(httpd.New(simenv.New(7), nil))
		if err := c.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		tree := c.Tree()
		names := tree.Names()
		c.Store().Put("fuzz/pinned", "key", "value")
		sessions := map[string]int64{}

		// serve sends one request and checks it against the tree's state.
		serve := func(r int, session string) {
			rt := fuzzRoutes[r%len(fuzzRoutes)]
			var downOnRoute []string
			for _, name := range rt.route {
				if !tree.Running(name) {
					downOnRoute = append(downOnRoute, name)
				}
			}
			_, err := c.Serve(httpd.Request{Method: "GET", Path: rt.path, Session: session})
			var down *component.DownError
			switch {
			case len(downOnRoute) > 0:
				if !errors.As(err, &down) || tree.Running(down.Component) {
					t.Fatalf("%s with %v down: err %v, want a DownError naming a down part", rt.path, downOnRoute, err)
				}
			case err != nil:
				t.Fatalf("%s with its route up: %v", rt.path, err)
			default:
				sessions[session]++
			}
		}
		next := func(i *int) int {
			*i++
			if *i >= len(data) {
				return 0
			}
			return int(data[*i])
		}

		for i := 0; i < len(data); i++ {
			switch data[i] % 4 {
			case 0:
				if err := tree.StartAll(); err != nil {
					t.Fatalf("StartAll: %v", err)
				}
				if !tree.AllRunning() {
					t.Fatal("StartAll left a part down")
				}
			case 1:
				name := names[next(&i)%len(names)]
				wasUp := tree.Running(name)
				reboots := tree.Reboots(name)
				if err := tree.Kill(name); err != nil {
					t.Fatalf("Kill(%s): %v", name, err)
				}
				if tree.Running(name) || tree.Reboots(name) != reboots {
					t.Fatalf("Kill(%s) (was up: %t) left it running or counted a reboot", name, wasUp)
				}
			case 2:
				op := next(&i)
				name, widen := names[op%len(names)], op&8 != 0
				windowRan := false
				err := tree.Reboot(name, widen, func(time.Duration) {
					windowRan = true
					if tree.Running(name) {
						t.Fatalf("Reboot(%s) window: the part is up", name)
					}
					serve(op>>4, "window")
				})
				if err != nil || !windowRan {
					t.Fatalf("Reboot(%s, widen=%t): err %v, window ran %t", name, widen, err, windowRan)
				}
				if !tree.Running(name) {
					t.Fatalf("Reboot(%s) left it down", name)
				}
			case 3:
				op := next(&i)
				serve(op, "u"+strconv.Itoa(op>>4%3))
			}
			if v, ok := c.Store().Get("fuzz/pinned", "key"); !ok || v != "value" {
				t.Fatalf("store entry lost: %q, %t", v, ok)
			}
			for session, n := range sessions {
				if got := c.SessionDepth(session); got != n {
					t.Fatalf("session %s depth %d, want %d", session, got, n)
				}
			}
		}
	})
}
