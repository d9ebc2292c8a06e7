package sqldb

import "testing"

// TestServeWarmAndMix verifies warmup creates the serve table and that every
// category of the 55/20/15/10 mix executes cleanly against it, with lazy
// per-user session connects.
func TestServeWarmAndMix(t *testing.T) {
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatalf("ServeWarm: %v", err)
	}
	cases := []struct {
		u    float64
		want string
	}{
		{0, ServeSelect},
		{0.549, ServeSelect},
		{0.55, ServeInsert},
		{0.749, ServeInsert},
		{0.75, ServeCount},
		{0.899, ServeCount},
		{0.90, ServeUpdate},
		{0.999, ServeUpdate},
	}
	for i, tc := range cases {
		cat, comp, err := c.ServeArrival(i, i%5, tc.u)
		if cat != tc.want {
			t.Errorf("u=%v category %q, want %q", tc.u, cat, tc.want)
		}
		if err != nil {
			t.Errorf("u=%v healthy serve errored: %v", tc.u, err)
		}
		if comp != "" {
			t.Errorf("u=%v healthy serve named down component %q", tc.u, comp)
		}
	}
	if !c.SessionAlive("u00000") {
		t.Error("ServeArrival did not connect the user session")
	}
}

// TestServeArrivalRefusedNamesComponent pins the refusal contract: a
// statement through a down executor names the executor; after the reboot the
// same user serves again without reconnecting.
func TestServeArrivalRefusedNamesComponent(t *testing.T) {
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatalf("ServeWarm: %v", err)
	}
	if _, _, err := c.ServeArrival(0, 9, 0.1); err != nil {
		t.Fatalf("pre-kill serve: %v", err)
	}
	c.Tree().Kill(CompExecutor)
	if _, comp, err := c.ServeArrival(1, 9, 0.1); err == nil || comp != CompExecutor {
		t.Fatalf("select through dead executor: comp=%q err=%v, want refusal naming %q", comp, err, CompExecutor)
	}
	if err := c.Tree().Reboot(CompExecutor, false, nil); err != nil {
		t.Fatalf("reboot executor: %v", err)
	}
	if _, comp, err := c.ServeArrival(2, 9, 0.1); err != nil || comp != "" {
		t.Fatalf("post-reboot serve: comp=%q err=%v, want clean serve", comp, err)
	}
}
