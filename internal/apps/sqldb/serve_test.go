package sqldb

import (
	"errors"
	"fmt"
	"testing"

	"faultstudy/internal/component"
)

// TestServeWarmAndMix verifies warmup creates the serve table and that every
// category of the 55/20/15/10 mix executes cleanly against it, with lazy
// per-user session connects: ServeCategory maps each draw onto its
// category, and ServeArrival serves that category — the serve table gains
// a row exactly on inserts.
func TestServeWarmAndMix(t *testing.T) {
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatalf("ServeWarm: %v", err)
	}
	rows := func() int64 {
		t.Helper()
		rs, err := c.srv.Exec("SELECT COUNT(*) FROM " + ServeTable)
		if err != nil {
			t.Fatalf("count: %v", err)
		}
		return rs.Count
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
		if got := c.ServeCategory(tc.u); got != tc.want {
			t.Errorf("u=%v category %q, want %q", tc.u, got, tc.want)
		}
		before := rows()
		if err := c.ServeArrival(i, i%5, tc.u); err != nil {
			t.Errorf("u=%v healthy serve errored: %v", tc.u, err)
		}
		want := before
		if tc.want == ServeInsert {
			want++
		}
		if got := rows(); got != want {
			t.Errorf("u=%v (%s) left %d rows, want %d", tc.u, tc.want, got, want)
		}
	}
	if !c.SessionAlive("u00000") {
		t.Error("ServeArrival did not connect the user session")
	}
}

// TestServeArrivalRefusedNamesComponent pins the refusal contract: a
// statement through a down executor returns a DownError naming the
// executor; after the reboot the same user serves again without
// reconnecting.
func TestServeArrivalRefusedNamesComponent(t *testing.T) {
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatalf("ServeWarm: %v", err)
	}
	if err := c.ServeArrival(0, 9, 0.1); err != nil {
		t.Fatalf("pre-kill serve: %v", err)
	}
	c.Tree().Kill(CompExecutor)
	var de *component.DownError
	if err := c.ServeArrival(1, 9, 0.1); !errors.As(err, &de) || de.Component != CompExecutor {
		t.Fatalf("select through dead executor: err=%v, want refusal naming %q", err, CompExecutor)
	}
	if err := c.Tree().Reboot(CompExecutor, false, nil); err != nil {
		t.Fatalf("reboot executor: %v", err)
	}
	if err := c.ServeArrival(2, 9, 0.1); err != nil {
		t.Fatalf("post-reboot serve: err=%v, want clean serve", err)
	}
}

// TestServeArrivalText pins the statement texts, session names and client
// addresses ServeArrival builds to their fmt.Sprintf forms, on both sides
// of each zero-padding and modulus boundary.
func TestServeArrivalText(t *testing.T) {
	for _, user := range []int{0, 7, 99_999, 100_000, 1_234_567} {
		if got, want := sessionName(user), fmt.Sprintf("u%05d", user); got != want {
			t.Errorf("sessionName(%d) = %q, want %q", user, got, want)
		}
	}
	for _, seq := range []int{0, 63, 64, 1_000_000} {
		for _, tc := range []struct{ category, want string }{
			{ServeSelect, fmt.Sprintf("SELECT * FROM %s WHERE k <= %d ORDER BY k LIMIT 10", ServeTable, seq%64)},
			{ServeInsert, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'p%d')", ServeTable, 8+seq, seq)},
			{ServeCount, "SELECT COUNT(*) FROM " + ServeTable},
			{ServeUpdate, fmt.Sprintf("UPDATE %s SET payload = 'u%d' WHERE k = %d", ServeTable, seq, seq%8)},
		} {
			if got := serveStatement(tc.category, seq); got != tc.want {
				t.Errorf("serveStatement(%s, %d) = %q, want %q", tc.category, seq, got, tc.want)
			}
		}
	}
	c := newComponentized(t)
	if err := c.ServeWarm(); err != nil {
		t.Fatalf("ServeWarm: %v", err)
	}
	const user = 1_234_567
	if err := c.ServeArrival(5, user, 0.8); err != nil {
		t.Fatalf("ServeArrival: %v", err)
	}
	addr, ok := c.Store().Get(SessionBucket, fmt.Sprintf("u%05d", user))
	if want := fmt.Sprintf("10.1.%d.%d", user/256, user%256); !ok || addr != want {
		t.Errorf("session address %q (stored %v), want %q", addr, ok, want)
	}
}
