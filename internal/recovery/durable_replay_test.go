package recovery

import (
	"errors"
	"testing"

	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// mustExec runs one statement against the database and fails the test on
// any error — used to seed durable state around the scenario under test.
func mustExec(t *testing.T, srv *sqldb.Server, sql string) {
	t.Helper()
	if _, err := srv.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestProcessPairsRestoreReplaysWAL: when the database has durable state, a
// process-pairs takeover must be served by checkpoint-load + log-replay of
// the write-ahead log — not by the logical snapshot fallback that trusts an
// in-memory copy.
func TestProcessPairsRestoreReplaysWAL(t *testing.T) {
	env := simenv.New(23)
	srv := sqldb.New(env, faultinject.NewSet(sqldb.MechSignalMaskRace))
	sc, _ := sqldb.Scenario(srv, sqldb.MechSignalMaskRace)
	// Seed real rows through the WAL before staging the losing
	// interleaving, so the takeover has durable bytes to replay. The
	// winning interleaving is pinned while seeding: the race must not fire
	// until the scenario's own query runs.
	sc.Stage = func() {
		env.Sched().Force(sqldb.MechSignalMaskRace, 1)
		mustExec(t, srv, "CREATE TABLE acct (id INT, owner TEXT)")
		mustExec(t, srv, "INSERT INTO acct VALUES (1, 'ada')")
		mustExec(t, srv, "INSERT INTO acct VALUES (2, 'bob')")
		mustExec(t, srv, "INSERT INTO acct VALUES (3, 'cyd')")
		env.Sched().Force(sqldb.MechSignalMaskRace, 0)
	}
	out := run(t, srv, sc, StrategyProcessPairs)
	if !out.Survived {
		t.Fatalf("signal-mask race should clear on takeover (err: %v)", out.Err)
	}
	if out.Attempts == 0 {
		t.Fatal("recovery never ran")
	}
	if got := srv.WALReplays(); got < 1 {
		t.Errorf("wal replays = %d, want >= 1: the takeover fell back to the logical snapshot", got)
	}
	if got := srv.LogicalFallbacks(); got != 0 {
		t.Errorf("logical fallbacks = %d, want 0 with an intact log", got)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("restart after run: %v", err)
	}
	defer srv.Stop()
	rs, err := srv.Exec("SELECT * FROM acct")
	if err != nil {
		t.Fatalf("post-recovery select: %v", err)
	}
	if len(rs.Rows) != 3 {
		t.Errorf("acct has %d rows after recovery, want 3", len(rs.Rows))
	}
}

// TestRestoreSurvivesCrashDuringReplay is the double fault: the replacement
// process crashes again in the middle of recovery itself, at the rollback's
// first write boundary (the log truncation). The half-finished recovery must
// leave the durable bytes replayable, so the attempt after that succeeds by
// log replay with the checkpointed state intact.
func TestRestoreSurvivesCrashDuringReplay(t *testing.T) {
	env := simenv.New(24)
	srv := sqldb.New(env, faultinject.NewSet())
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	mustExec(t, srv, "CREATE TABLE acct (id INT, owner TEXT)")
	mustExec(t, srv, "INSERT INTO acct VALUES (1, 'ada')")
	mustExec(t, srv, "INSERT INTO acct VALUES (2, 'bob')")
	mustExec(t, srv, "INSERT INTO acct VALUES (3, 'cyd')")
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Rows past the checkpoint: the rollback must truncate these.
	mustExec(t, srv, "INSERT INTO acct VALUES (4, 'doomed')")
	mustExec(t, srv, "INSERT INTO acct VALUES (5, 'doomed')")
	srv.Stop()

	// First recovery attempt: the process dies at the very first write
	// boundary recovery reaches, which is the rollback truncating the log.
	env.Disk().ScheduleCrash(0, 0)
	err = srv.Restore(snap)
	if err == nil {
		t.Fatal("restore on a crashing disk should fail")
	}
	if !errors.Is(err, simenv.ErrDiskCrashed) {
		t.Fatalf("restore error = %v, want the scheduled crash", err)
	}
	if !env.Disk().Crashed() {
		t.Fatal("the scheduled crash never fired")
	}
	if got := srv.WALReplays(); got != 0 {
		t.Errorf("wal replays after the crashed attempt = %d, want 0", got)
	}

	// The replacement process starts with exactly the bytes that survived.
	env.Disk().ClearCrash()
	if err := srv.Restore(snap); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	defer srv.Stop()
	if got := srv.WALReplays(); got != 1 {
		t.Errorf("wal replays = %d, want 1: the retry must be served by log replay", got)
	}
	rs, err := srv.Exec("SELECT * FROM acct")
	if err != nil {
		t.Fatalf("post-recovery select: %v", err)
	}
	if len(rs.Rows) != 3 {
		t.Errorf("acct has %d rows after rollback, want the 3 checkpointed ones", len(rs.Rows))
	}
	// The store must be healthy again, not just readable: a post-recovery
	// write has to commit.
	mustExec(t, srv, "INSERT INTO acct VALUES (4, 'alive')")
}
