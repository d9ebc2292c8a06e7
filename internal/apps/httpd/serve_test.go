package httpd

import (
	"errors"
	"fmt"
	"testing"

	"faultstudy/internal/component"
)

// TestServeArrivalMix pins the category thresholds: the uniform draw must
// map onto the standard 70/10/10/5/5 mix, and ServeArrival must serve the
// category ServeCategory names — advancing the user's session counter, and
// writing the proxy cache or keeping a CGI child exactly on those paths (the
// proc-table mechanism keeps each child so the test can count them).
// Healthy serving answers every category, including unknown paths, which
// the server 404s without erroring.
func TestServeArrivalMix(t *testing.T) {
	c := newComponentized(t, MechProcTableFull)
	if err := c.ServeWarm(); err != nil {
		t.Fatalf("ServeWarm: %v", err)
	}
	cases := []struct {
		u    float64
		want string
	}{
		{0, ServeStatic},
		{0.699, ServeStatic},
		{0.70, ServeListing},
		{0.799, ServeListing},
		{0.80, ServeCGI},
		{0.899, ServeCGI},
		{0.90, ServeProxy},
		{0.949, ServeProxy},
		{0.95, ServeNotFound},
		{0.999, ServeNotFound},
	}
	for i, tc := range cases {
		if got := c.ServeCategory(tc.u); got != tc.want {
			t.Errorf("u=%v category %q, want %q", tc.u, got, tc.want)
		}
		user := i % 7
		session := fmt.Sprintf("u%05d", user)
		depth := c.SessionDepth(session)
		c.srv.mu.Lock()
		cache, children := c.srv.cacheBytes, len(c.srv.children)
		c.srv.mu.Unlock()
		if err := c.ServeArrival(i, user, tc.u); err != nil {
			t.Errorf("u=%v healthy serve errored: %v", tc.u, err)
		}
		if got := c.SessionDepth(session); got != depth+1 {
			t.Errorf("u=%v session %s depth %d, want %d", tc.u, session, got, depth+1)
		}
		c.srv.mu.Lock()
		cached, spawned := c.srv.cacheBytes > cache, len(c.srv.children) > children
		c.srv.mu.Unlock()
		if cached != (tc.want == ServeProxy) || spawned != (tc.want == ServeCGI) {
			t.Errorf("u=%v (%s) wrote cache=%v kept child=%v", tc.u, tc.want, cached, spawned)
		}
	}
}

// TestServeArrivalRefusedNamesComponent verifies the refusal contract the
// SERVE experiment classifies on: a request routed through a down component
// returns a DownError naming that component, while siblings keep serving.
func TestServeArrivalRefusedNamesComponent(t *testing.T) {
	c := newComponentized(t)
	c.Tree().Kill(CompCache)
	var de *component.DownError
	if err := c.ServeArrival(1, 1, 0.92); !errors.As(err, &de) || de.Component != CompCache {
		t.Fatalf("proxy through dead cache: err=%v, want refusal naming %q", err, CompCache)
	}
	// Static requests do not route through the cache: still served.
	if err := c.ServeArrival(2, 2, 0.1); err != nil {
		t.Fatalf("static with dead cache: err=%v, want clean serve", err)
	}
}
