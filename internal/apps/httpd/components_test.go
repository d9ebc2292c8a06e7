package httpd

import (
	"errors"
	"testing"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

func newComponentized(t *testing.T, mechs ...string) *Componentized {
	t.Helper()
	env := simenv.New(1, simenv.WithFDLimit(64), simenv.WithProcLimit(192))
	c := Componentize(New(env, faultinject.NewSet(mechs...)))
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

// TestSessionsSurviveComponentReboot is the externalization regression test:
// a session's counter must survive a core microreboot, a subtree reboot, and
// a full process restart, because it lives outside every component.
func TestSessionsSurviveComponentReboot(t *testing.T) {
	c := newComponentized(t)
	req := Request{Method: "GET", Path: "/", Session: "alice"}
	for i := 0; i < 2; i++ {
		if _, err := c.Serve(req); err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
	}
	if got := c.SessionDepth("alice"); got != 2 {
		t.Fatalf("session depth = %d, want 2", got)
	}

	if err := c.Tree().Reboot(CompCore, false, nil); err != nil {
		t.Fatalf("reboot core: %v", err)
	}
	if got := c.SessionDepth("alice"); got != 2 {
		t.Fatalf("session lost in core reboot: depth = %d", got)
	}
	if _, err := c.Serve(req); err != nil {
		t.Fatalf("serve after reboot: %v", err)
	}
	if got := c.SessionDepth("alice"); got != 3 {
		t.Fatalf("session did not resume: depth = %d", got)
	}

	if err := c.Tree().Reboot(CompCore, true, nil); err != nil {
		t.Fatalf("reboot subtree: %v", err)
	}
	if got := c.SessionDepth("alice"); got != 3 {
		t.Fatalf("session lost in subtree reboot: depth = %d", got)
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	c.Stop()
	if err := c.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := c.Serve(req); err != nil {
		t.Fatalf("serve after restart: %v", err)
	}
	if got := c.SessionDepth("alice"); got != 4 {
		t.Fatalf("session lost across process restart: depth = %d", got)
	}
}

// TestRoutingFailsFastThroughDownComponents verifies the DownError routing:
// requests through a dead component fail fast, siblings keep serving, and a
// down logger degrades to unlogged serving instead of failing.
func TestRoutingFailsFastThroughDownComponents(t *testing.T) {
	c := newComponentized(t)
	if err := c.Tree().Kill(CompCache); err != nil {
		t.Fatalf("kill cache: %v", err)
	}
	_, err := c.Serve(Request{Method: "GET", Path: "/proxy/x"})
	var de *component.DownError
	if !errors.As(err, &de) || de.Component != CompCache {
		t.Fatalf("proxy request with cache down: %v", err)
	}
	if resp, err := c.Serve(Request{Method: "GET", Path: "/"}); err != nil || resp.Status != 200 {
		t.Fatalf("sibling request failed during cache outage: %v (%+v)", err, resp)
	}
	if err := c.Tree().Reboot(CompCache, false, nil); err != nil {
		t.Fatalf("restart cache: %v", err)
	}
	if _, err := c.Serve(Request{Method: "GET", Path: "/proxy/x"}); err != nil {
		t.Fatalf("proxy request after cache restart: %v", err)
	}

	// Logger down: requests still serve, just unlogged.
	if err := c.Tree().Kill(CompLogger); err != nil {
		t.Fatalf("kill logger: %v", err)
	}
	if resp, err := c.Serve(Request{Method: "GET", Path: "/"}); err != nil || resp.Status != 200 {
		t.Fatalf("request with logger down: %v (%+v)", err, resp)
	}
	if err := c.Tree().Reboot(CompLogger, false, nil); err != nil {
		t.Fatalf("restart logger: %v", err)
	}
}

// TestCoreRebootDiscardsLeakedDescriptors verifies the crash-only payoff for
// the leak mechanisms: rebooting the core closes every leaked descriptor and
// zeroes the leak accounting, where a generic restore would faithfully
// re-leak them.
func TestCoreRebootDiscardsLeakedDescriptors(t *testing.T) {
	c := newComponentized(t, MechFDExhaustion)
	for i := 0; i < 10; i++ {
		if _, err := c.Serve(Request{Method: "GET", Path: "/"}); err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
	}
	c.srv.mu.Lock()
	leaked := len(c.srv.leakFDs)
	c.srv.mu.Unlock()
	if leaked != 10 {
		t.Fatalf("leaked fds = %d, want 10", leaked)
	}
	if err := c.Tree().Reboot(CompCore, false, nil); err != nil {
		t.Fatalf("reboot core: %v", err)
	}
	c.srv.mu.Lock()
	leaked, want := len(c.srv.leakFDs), c.srv.leakFDWant
	c.srv.mu.Unlock()
	if leaked != 0 || want != 0 {
		t.Fatalf("core reboot kept leaks: fds=%d want=%d", leaked, want)
	}
}

// TestContainCrashRevivesProcess verifies crash containment: a seeded crash
// marks the process dead, containment brings the process flag back, and a
// reboot of the attributed component restores service.
func TestContainCrashRevivesProcess(t *testing.T) {
	c := newComponentized(t, MechNullDeref)
	_, err := c.Serve(Request{Method: "GET", Path: "/bug/null-deref"})
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechNullDeref {
		t.Fatalf("bug path error = %v", err)
	}
	if c.Running() {
		t.Fatal("process alive after seeded crash")
	}
	comp, ok := c.ComponentFor(MechNullDeref)
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
	if resp, err := c.Serve(Request{Method: "GET", Path: "/"}); err != nil || resp.Status != 200 {
		t.Fatalf("serve after contained reboot: %v (%+v)", err, resp)
	}
}

// TestCGIRebootReapsHungChildren verifies that crash-stopping the CGI part
// frees the process table the hung children exhausted.
func TestCGIRebootReapsHungChildren(t *testing.T) {
	c := newComponentized(t, MechProcTableFull)
	for i := 0; i < 5; i++ {
		if _, err := c.Serve(Request{Method: "GET", Path: "/cgi-bin/env"}); err != nil {
			t.Fatalf("cgi %d: %v", i, err)
		}
	}
	c.srv.mu.Lock()
	kids := len(c.srv.children)
	c.srv.mu.Unlock()
	if kids != 5 {
		t.Fatalf("hung children = %d, want 5", kids)
	}
	if err := c.Tree().Reboot(CompCGI, false, nil); err != nil {
		t.Fatalf("reboot cgi: %v", err)
	}
	c.srv.mu.Lock()
	kids = len(c.srv.children)
	c.srv.mu.Unlock()
	if kids != 0 {
		t.Fatalf("children after cgi reboot = %d", kids)
	}
}
