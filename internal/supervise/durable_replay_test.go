package supervise

import (
	"testing"

	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// TestRestoreRungReplaysWAL walks the ladder against a database with durable
// state and requires every state-preserving rung — the microreboot fallback's
// Restore(preOp) and the restore rung's Restore(epoch) — to be served by
// write-ahead-log replay, never by the logical snapshot fallback. The breaker
// threshold stops the ladder before the restart rung, whose Reset
// legitimately destroys the log.
func TestRestoreRungReplaysWAL(t *testing.T) {
	env := simenv.New(31)
	srv := sqldb.New(env, faultinject.NewSet(sqldb.MechOrderByEmpty))
	sc, _ := sqldb.Scenario(srv, sqldb.MechOrderByEmpty)
	// CheckpointEvery 1 keeps the epoch on the served prefix (a snapshot
	// with durable state), so the restore rung's rollback target is real.
	sup := New(srv, Config{Seed: 31, BreakerThreshold: 5, CheckpointEvery: 1})
	rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// seedTable's five statements serve; the empty-ORDER-BY query is the
	// deterministic failure the ladder cannot repair.
	if rep.OpsOK != 5 || rep.OpsFailed != 1 {
		t.Fatalf("ops ok/failed = %d/%d, want 5/1\n%s", rep.OpsOK, rep.OpsFailed, rep)
	}
	if rep.Escalations[RungRestore] == 0 {
		t.Fatalf("the ladder never reached the restore rung\n%s", rep)
	}
	if rep.Escalations[RungRestart] != 0 {
		t.Fatalf("breaker should open before the state-discarding restart rung\n%s", rep)
	}
	// Two retry-rung restores, two microreboot fallbacks, one restore-rung
	// rollback: all served by replay.
	if got := srv.WALReplays(); got < 5 {
		t.Errorf("wal replays = %d, want >= 5 (every ladder restore)", got)
	}
	// Exactly one fallback, and it is the designed one: the give-up path
	// restores the pre-op snapshot, which lies past the restore rung's
	// truncation point — the rolled-back log cannot serve it by replay.
	if got := srv.LogicalFallbacks(); got != 1 {
		t.Errorf("logical fallbacks = %d, want exactly the post-rollback give-up restore", got)
	}
}

// TestRestartRungFallsBackToLogicalRebuild is the complementary path: once
// the restart rung's Reset has deliberately destroyed the store, a later
// restore cannot be served by replay and must take the logical rebuild —
// which also resyncs the store so replay works again afterwards.
func TestRestartRungFallsBackToLogicalRebuild(t *testing.T) {
	env := simenv.New(32)
	srv := sqldb.New(env, faultinject.NewSet(sqldb.MechOrderByEmpty))
	sc, _ := sqldb.Scenario(srv, sqldb.MechOrderByEmpty)
	sup := New(srv, Config{Seed: 32})
	rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Escalations[RungRestart] == 0 {
		t.Fatalf("the ladder never reached the restart rung\n%s", rep)
	}
	if got := srv.LogicalFallbacks(); got == 0 {
		t.Error("no logical fallback recorded after Reset destroyed the log")
	}
	if got := srv.WALReplays(); got < 2 {
		t.Errorf("wal replays = %d, want >= 2 before the restart rung", got)
	}
}
