package supervise

import (
	"fmt"
	"testing"

	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
)

// TestRestoreRungReplaysWAL walks the ladder against a database with durable
// state and requires every state-preserving rung — the retry rung's and the
// microreboot fallback's Restore(preOp) and the restore rung's
// Restore(epoch) — to be served by write-ahead-log replay, never by the
// logical snapshot fallback. The counters are read when the ladder escalates
// to the restart rung, whose Reset legitimately destroys the log.
func TestRestoreRungReplaysWAL(t *testing.T) {
	env := simenv.New(31)
	srv := sqldb.New(env, faultinject.NewSet(sqldb.MechOrderByEmpty))
	sc, _ := sqldb.Scenario(srv, sqldb.MechOrderByEmpty)
	// Eleven more inserts before the failing query make sixteen served ops,
	// so the epoch checkpoint lands on the served prefix (a snapshot with
	// durable state) and the restore rung's rollback target is real.
	ops := wrapOps(sc.Ops[:len(sc.Ops)-1], OpRead)
	for k := 4; k <= 14; k++ {
		sql := fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", k, k)
		ops = append(ops, Op{Name: sql, Kind: OpRead, Do: func() error {
			_, err := srv.Exec(sql)
			return err
		}})
	}
	ops = append(ops, wrapOps(sc.Ops[len(sc.Ops)-1:], OpRead)...)

	replays, fallbacks := int64(-1), int64(-1)
	var checkpoints []string
	sup := New(srv, Config{Seed: 31, Trace: func(ev recovery.Event) {
		switch {
		case ev.Kind == recovery.EventCheckpoint:
			checkpoints = append(checkpoints, ev.Op)
		case ev.Kind == recovery.EventEscalate && ev.Rung == recovery.RungRestart:
			replays, fallbacks = srv.WALReplays(), srv.LogicalFallbacks()
		}
	}})
	rep, err := sup.Run(ops)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The sixteen seeding statements serve; the empty-ORDER-BY query is the
	// deterministic failure the ladder cannot repair.
	if rep.OpsOK != 16 || rep.OpsFailed != 1 {
		t.Fatalf("ops ok/failed = %d/%d, want 16/1\n%s", rep.OpsOK, rep.OpsFailed, rep)
	}
	// The initial checkpoint, then one every sixteen served ops.
	if want := fmt.Sprint([]string{"", ops[15].Name}); fmt.Sprint(checkpoints) != want {
		t.Errorf("checkpoints at %q, want %s", checkpoints, want)
	}
	if rep.Escalations[recovery.RungRestore] == 0 || replays < 0 {
		t.Fatalf("the ladder never reached the restart rung through the restore rung\n%s", rep)
	}
	// Two retry-rung restores, two microreboot fallbacks, two restore-rung
	// rollbacks: all served by replay.
	if replays < 6 {
		t.Errorf("wal replays before the restart rung = %d, want >= 6 (every ladder restore)", replays)
	}
	if fallbacks != 0 {
		t.Errorf("logical fallbacks before the restart rung = %d, want 0", fallbacks)
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
	if rep.Escalations[recovery.RungRestart] == 0 {
		t.Fatalf("the ladder never reached the restart rung\n%s", rep)
	}
	if got := srv.LogicalFallbacks(); got == 0 {
		t.Error("no logical fallback recorded after Reset destroyed the log")
	}
	if got := srv.WALReplays(); got < 2 {
		t.Errorf("wal replays = %d, want >= 2 before the restart rung", got)
	}
}
