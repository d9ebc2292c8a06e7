package sqldb

import (
	"errors"
	"testing"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

func newComponentized(t *testing.T, mechs ...string) *Componentized {
	t.Helper()
	env := simenv.New(1, simenv.WithFDLimit(64))
	c := Componentize(New(env, faultinject.NewSet(mechs...)), component.NewStore())
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

// TestSessionReattachAfterListenerReboot verifies session externalization: a
// listener reboot drops every TCP connection, but the session re-attaches
// transparently on its next statement.
func TestSessionReattachAfterListenerReboot(t *testing.T) {
	c := newComponentized(t)
	if err := c.Connect("alice", "10.0.0.7"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if _, err := c.Exec("alice", "CREATE TABLE t (id INT, name TEXT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Exec("alice", "INSERT INTO t VALUES (1, 'a')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if c.srv.Connections() != 1 {
		t.Fatalf("connections = %d", c.srv.Connections())
	}

	if err := c.Tree().Reboot(CompListener, false, nil); err != nil {
		t.Fatalf("reboot listener: %v", err)
	}
	if c.srv.Connections() != 0 {
		t.Fatal("listener reboot kept connections")
	}
	if !c.SessionAlive("alice") {
		t.Fatal("session died with the listener")
	}
	// The next statement re-attaches without an explicit reconnect.
	rs, err := c.Exec("alice", "SELECT id FROM t")
	if err != nil {
		t.Fatalf("select after reboot: %v", err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rs.Rows))
	}
	if c.srv.Connections() != 1 {
		t.Fatalf("re-attach made %d connections", c.srv.Connections())
	}
}

// TestPreparedStatementsSurviveParserReboot verifies that prepared
// statements, parsed at Prepare time and externalized, keep executing while
// the parser is down — and that ad-hoc SQL correctly fails fast.
func TestPreparedStatementsSurviveParserReboot(t *testing.T) {
	c := newComponentized(t)
	if err := c.Connect("alice", "10.0.0.7"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if _, err := c.Exec("alice", "CREATE TABLE t (id INT, name TEXT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.Prepare("alice", "all", "SELECT id FROM t"); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := c.Prepare("alice", "bad", "NOT SQL AT ALL"); err == nil {
		t.Fatal("prepare accepted garbage")
	}

	if err := c.Tree().Kill(CompParser); err != nil {
		t.Fatalf("kill parser: %v", err)
	}
	var de *component.DownError
	if _, err := c.Exec("alice", "SELECT id FROM t"); !errors.As(err, &de) || de.Component != CompParser {
		t.Fatalf("ad-hoc SQL with parser down: %v", err)
	}
	if _, err := c.ExecPrepared("alice", "all"); err != nil {
		t.Fatalf("prepared statement with parser down: %v", err)
	}
	if err := c.Tree().Restart(CompParser); err != nil {
		t.Fatalf("restart parser: %v", err)
	}
	if _, err := c.Exec("alice", "SELECT id FROM t"); err != nil {
		t.Fatalf("ad-hoc SQL after parser restart: %v", err)
	}
}

// TestStorageRebootReleasesTableDescriptors verifies that crash-stopping the
// storage part frees table descriptors (the fd-competition remedy) and that
// its restart reopens them.
func TestStorageRebootReleasesTableDescriptors(t *testing.T) {
	c := newComponentized(t)
	if err := c.Connect("alice", "10.0.0.7"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if _, err := c.Exec("alice", "CREATE TABLE t (id INT, name TEXT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.Tree().Kill(CompStorage); err != nil {
		t.Fatalf("kill storage: %v", err)
	}
	c.srv.mu.Lock()
	anyFD := false
	for _, tb := range c.srv.tables {
		anyFD = anyFD || tb.hasFD
	}
	c.srv.mu.Unlock()
	if anyFD {
		t.Fatal("storage kill kept table descriptors")
	}
	var de *component.DownError
	if _, err := c.Exec("alice", "SELECT id FROM t"); !errors.As(err, &de) || de.Component != CompStorage {
		t.Fatalf("query with storage down: %v", err)
	}
	if err := c.Tree().Restart(CompStorage); err != nil {
		t.Fatalf("restart storage: %v", err)
	}
	if _, err := c.Exec("alice", "SELECT id FROM t"); err != nil {
		t.Fatalf("query after storage restart: %v", err)
	}
}

// TestDBContainCrash verifies crash containment and component attribution on
// the database's seeded bugs.
func TestDBContainCrash(t *testing.T) {
	c := newComponentized(t, MechCountEmpty)
	if err := c.Connect("alice", "10.0.0.7"); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if _, err := c.Exec("alice", "CREATE TABLE empty (id INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	_, err := c.Exec("alice", "SELECT COUNT(*) FROM empty")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechCountEmpty {
		t.Fatalf("count on empty: %v", err)
	}
	if c.Running() {
		t.Fatal("process alive after seeded crash")
	}
	comp, ok := c.ComponentFor(MechCountEmpty)
	if !ok || comp != CompExecutor {
		t.Fatalf("ComponentFor = %q/%v", comp, ok)
	}
	c.ContainCrash()
	if err := c.Tree().Reboot(comp, false, nil); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if _, err := c.Exec("alice", "SELECT id FROM empty"); err != nil {
		t.Fatalf("select after contained reboot: %v", err)
	}
}
