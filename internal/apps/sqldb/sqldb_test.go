package sqldb

import (
	"fmt"
	"testing"
	"testing/quick"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

func newDB(t *testing.T, faults *faultinject.Set, opts ...simenv.Option) *Server {
	t.Helper()
	env := simenv.New(11, opts...)
	srv := New(env, faults)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return srv
}

func mustExec(t *testing.T, srv *Server, sql string) *ResultSet {
	t.Helper()
	rs, err := srv.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return rs
}

func seed(t *testing.T, srv *Server, rows int) {
	t.Helper()
	mustExec(t, srv, "CREATE TABLE t (k INT, name TEXT)")
	mustExec(t, srv, "CREATE INDEX k_idx ON t (k)")
	for i := 1; i <= rows; i++ {
		mustExec(t, srv, fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i))
	}
}

func TestBasicCRUD(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 5)

	rs := mustExec(t, srv, "SELECT * FROM t WHERE k >= 2 ORDER BY k DESC LIMIT 3")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	if rs.Rows[0][0].I != 5 || rs.Rows[2][0].I != 3 {
		t.Errorf("order wrong: %v", rs.Rows)
	}

	rs = mustExec(t, srv, "SELECT COUNT(*) FROM t")
	if !rs.IsCount || rs.Count != 5 {
		t.Errorf("count = %+v", rs)
	}

	mustExec(t, srv, "UPDATE t SET name = 'zzz' WHERE k = 3")
	rs = mustExec(t, srv, "SELECT name FROM t WHERE k = 3")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "zzz" {
		t.Errorf("update result: %v", rs.Rows)
	}

	mustExec(t, srv, "DELETE FROM t WHERE k <= 2")
	rs = mustExec(t, srv, "SELECT COUNT(*) FROM t")
	if rs.Count != 3 {
		t.Errorf("count after delete = %d", rs.Count)
	}

	mustExec(t, srv, "OPTIMIZE TABLE t")
	rs = mustExec(t, srv, "SELECT * FROM t ORDER BY k")
	if len(rs.Rows) != 3 || rs.Rows[0][0].I != 3 {
		t.Errorf("after optimize: %v", rs.Rows)
	}
}

func TestSelfReferencingUpdateHealthy(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 5)
	mustExec(t, srv, "UPDATE t SET k = k + 1")
	rs := mustExec(t, srv, "SELECT k FROM t ORDER BY k")
	for i, row := range rs.Rows {
		if row[0].I != int64(i+2) {
			t.Fatalf("row %d = %v, want %d (each key incremented exactly once)", i, row[0], i+2)
		}
	}
}

// TestSelfReferencingUpdateZeroDelta pins that "k = k + 0" is arithmetic
// like any other delta: every key keeps its value instead of being
// overwritten by an empty plain-SET value.
func TestSelfReferencingUpdateZeroDelta(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 5)
	mustExec(t, srv, "UPDATE t SET k = k + 0 WHERE k = 5")
	rs := mustExec(t, srv, "SELECT k, name FROM t ORDER BY k")
	if len(rs.Rows) != 5 {
		t.Fatalf("rows = %v, want 5", rs.Rows)
	}
	for i, row := range rs.Rows {
		if !row[0].IsInt || row[0].I != int64(i+1) || row[1].S != fmt.Sprintf("row%d", i+1) {
			t.Errorf("row %d = %v, want (%d, 'row%d')", i, row, i+1, i+1)
		}
	}
}

func TestStatementErrorsDoNotKillServer(t *testing.T) {
	srv := newDB(t, nil)
	bad := []string{
		"SELEKT * FROM t",
		"SELECT * FROM missing",
		"CREATE TABLE x (c WEIRD)",
		"INSERT INTO missing VALUES (1)",
		"SELECT nope FROM t",
	}
	mustExec(t, srv, "CREATE TABLE t (k INT)")
	for _, sql := range bad {
		if _, err := srv.Exec(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
		if _, ok := faultinject.AsFailure(fmt.Errorf("w")); ok {
			t.Fatal("impossible")
		}
	}
	if !srv.Running() {
		t.Error("statement errors must leave the server up")
	}
}

func TestDuplicateTableAndIndex(t *testing.T) {
	srv := newDB(t, nil)
	mustExec(t, srv, "CREATE TABLE t (k INT)")
	if _, err := srv.Exec("CREATE TABLE t (k INT)"); err == nil {
		t.Error("duplicate table should fail")
	}
	mustExec(t, srv, "CREATE INDEX i ON t (k)")
	if _, err := srv.Exec("CREATE INDEX j ON t (k)"); err == nil {
		t.Error("duplicate index should fail")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	srv := newDB(t, nil)
	mustExec(t, srv, "CREATE TABLE t (k INT, s TEXT)")
	if _, err := srv.Exec("INSERT INTO t VALUES ('x', 'y')"); err == nil {
		t.Error("string into INT should fail")
	}
	if _, err := srv.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestIndexUpdateScanBug(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechIndexUpdateScan))
	seed(t, srv, 5)
	_, err := srv.Exec("UPDATE t SET k = k + 1")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechIndexUpdateScan || fe.Symptom != taxonomy.SymptomCrash {
		t.Fatalf("failure = %v", err)
	}
	if srv.Running() {
		t.Error("server should be down")
	}
	// Decrementing moves keys backward — never re-encountered, no crash.
	srv2 := newDB(t, faultinject.NewSet(MechIndexUpdateScan))
	seed(t, srv2, 5)
	mustExec(t, srv2, "UPDATE t SET name = 'same' WHERE k = 2")
}

func TestOrderByEmptyBug(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechOrderByEmpty))
	seed(t, srv, 3)
	// Non-empty results sort fine.
	mustExec(t, srv, "SELECT * FROM t WHERE k >= 1 ORDER BY k")
	_, err := srv.Exec("SELECT * FROM t WHERE k > 100 ORDER BY name")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechOrderByEmpty {
		t.Fatalf("failure = %v", err)
	}
}

func TestCountEmptyBug(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechCountEmpty))
	mustExec(t, srv, "CREATE TABLE e (c INT)")
	_, err := srv.Exec("SELECT COUNT(c) FROM e")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechCountEmpty {
		t.Fatalf("failure = %v", err)
	}
	// Non-empty tables count fine.
	srv2 := newDB(t, faultinject.NewSet(MechCountEmpty))
	mustExec(t, srv2, "CREATE TABLE e (c INT)")
	mustExec(t, srv2, "INSERT INTO e VALUES (1)")
	rs := mustExec(t, srv2, "SELECT COUNT(c) FROM e")
	if rs.Count != 1 {
		t.Errorf("count = %d", rs.Count)
	}
}

func TestOptimizeCrashBug(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechOptimizeCrash))
	seed(t, srv, 2)
	_, err := srv.Exec("OPTIMIZE TABLE t")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechOptimizeCrash {
		t.Fatalf("failure = %v", err)
	}
}

func TestFlushAfterLockBug(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechFlushAfterLock))
	seed(t, srv, 2)
	// FLUSH without a lock is fine even with the bug armed.
	mustExec(t, srv, "FLUSH TABLES")
	mustExec(t, srv, "LOCK TABLES t READ")
	_, err := srv.Exec("FLUSH TABLES")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechFlushAfterLock {
		t.Fatalf("failure = %v", err)
	}
	// UNLOCK then FLUSH is also fine on a fresh server.
	srv2 := newDB(t, faultinject.NewSet(MechFlushAfterLock))
	seed(t, srv2, 1)
	mustExec(t, srv2, "LOCK TABLES t WRITE")
	mustExec(t, srv2, "UNLOCK TABLES")
	mustExec(t, srv2, "FLUSH TABLES")
}

func TestGenericEIBugs(t *testing.T) {
	tests := []struct {
		key     string
		symptom taxonomy.Symptom
	}{
		{MechNullDeref, taxonomy.SymptomCrash},
		{MechStaleBuffer, taxonomy.SymptomError},
		{MechBadInit, taxonomy.SymptomCrash},
		{MechExecLoop, taxonomy.SymptomHang},
		{MechBounds, taxonomy.SymptomCrash},
		{MechMissingCheck, taxonomy.SymptomCrash},
	}
	for _, tt := range tests {
		srv := newDB(t, faultinject.NewSet(tt.key))
		tbl := "bug_" + underscore(tt.key[len("sqldb/"):])
		mustExec(t, srv, "CREATE TABLE "+tbl+" (c INT)")
		_, err := srv.Exec("SELECT * FROM " + tbl)
		fe, ok := faultinject.AsFailure(err)
		if !ok || fe.Mechanism != tt.key || fe.Symptom != tt.symptom {
			t.Errorf("%s: failure = %v", tt.key, err)
		}
		// Fault-free servers treat the same tables as ordinary tables.
		clean := newDB(t, nil)
		mustExec(t, clean, "CREATE TABLE "+tbl+" (c INT)")
		mustExec(t, clean, "SELECT * FROM "+tbl)
	}
}

func TestFDCompetition(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechFDCompetition), simenv.WithFDLimit(8))
	env := srv.Env()
	for env.FDs().Limit()-env.FDs().InUse() > 0 {
		if _, err := env.FDs().Open("httpd-neighbor"); err != nil {
			break
		}
	}
	_, err := srv.Exec("CREATE TABLE t (c INT)")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechFDCompetition {
		t.Fatalf("failure = %v", err)
	}
}

func TestNoReverseDNS(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechNoReverseDNS))
	srv.Env().DNS().AddHost("good.example.com", "10.0.0.1")
	if _, err := srv.Connect("10.0.0.1"); err != nil {
		t.Fatalf("connect with PTR: %v", err)
	}
	_, err := srv.Connect("10.9.9.9")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechNoReverseDNS || fe.Symptom != taxonomy.SymptomCrash {
		t.Fatalf("failure = %v", err)
	}
}

func TestDBFileLimit(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechDBFileLimit),
		simenv.WithDiskBytes(1<<20), simenv.WithMaxFileSize(256))
	mustExec(t, srv, "CREATE TABLE t (c INT)")
	var failure error
	for i := 0; i < 10; i++ {
		if _, err := srv.Exec("INSERT INTO t VALUES (1)"); err != nil {
			failure = err
			break
		}
	}
	fe, ok := faultinject.AsFailure(failure)
	if !ok || fe.Mechanism != MechDBFileLimit {
		t.Fatalf("failure = %v", failure)
	}
}

func TestFSFull(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechFSFull))
	mustExec(t, srv, "CREATE TABLE t (c INT)")
	if err := srv.Env().Disk().FillFrom("tenant", 10); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Exec("INSERT INTO t VALUES (1)")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechFSFull {
		t.Fatalf("failure = %v", err)
	}
}

func TestSignalMaskRace(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechSignalMaskRace))
	srv.Env().Sched().Force(MechSignalMaskRace, 0)
	_, err := srv.Exec("CREATE TABLE t (c INT)")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechSignalMaskRace {
		t.Fatalf("failure = %v", err)
	}
	// The winning interleaving survives.
	srv2 := newDB(t, faultinject.NewSet(MechSignalMaskRace))
	srv2.Env().Sched().Force(MechSignalMaskRace, 1)
	mustExec(t, srv2, "CREATE TABLE t (c INT)")
}

func TestLoginAdminRace(t *testing.T) {
	srv := newDB(t, faultinject.NewSet(MechLoginAdminRace))
	srv.Env().Sched().Force(MechLoginAdminRace, 0)
	mustExec(t, srv, "GRANT SELECT ON t TO bob")
	_, err := srv.Connect("10.0.0.2")
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechLoginAdminRace {
		t.Fatalf("failure = %v", err)
	}
	// After FLUSH PRIVILEGES there is no reload window, so no race.
	srv2 := newDB(t, faultinject.NewSet(MechLoginAdminRace))
	srv2.Env().Sched().Force(MechLoginAdminRace, 0)
	mustExec(t, srv2, "GRANT SELECT ON t TO bob")
	mustExec(t, srv2, "FLUSH PRIVILEGES")
	if _, err := srv2.Connect("10.0.0.2"); err != nil {
		t.Fatalf("connect after flush: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 4)
	mustExec(t, srv, "DELETE FROM t WHERE k = 2")
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	srv.Env().ReclaimOwner(Owner)
	if err := srv.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rs := mustExec(t, srv, "SELECT k FROM t ORDER BY k")
	if len(rs.Rows) != 3 || rs.Rows[0][0].I != 1 || rs.Rows[2][0].I != 4 {
		t.Errorf("restored rows: %v", rs.Rows)
	}
	// Indexes survive restore.
	rs = mustExec(t, srv, "SELECT name FROM t WHERE k = 3")
	if len(rs.Rows) != 1 {
		t.Errorf("index lookup after restore: %v", rs.Rows)
	}
}

func TestResetDropsEverything(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 3)
	srv.Stop()
	if err := srv.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Exec("SELECT * FROM t"); err == nil {
		t.Error("table should be gone after reset")
	}
	if srv.Env().Disk().Exists("/var/db/t.ISD") {
		t.Error("datafile should be gone after reset")
	}
}

func TestConnectionsLifecycle(t *testing.T) {
	srv := newDB(t, nil)
	id, err := srv.Connect("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if !srv.Connected(id) || len(srv.connections) != 1 {
		t.Error("connection not recorded")
	}
	srv.Stop()
	if _, err := srv.Connect("10.0.0.1"); err == nil {
		t.Error("connect while down should fail")
	}
	if _, err := srv.Exec("SELECT 1 FROM t"); err == nil {
		t.Error("exec while down should fail")
	}
}

func TestScenariosCoverEveryMechanism(t *testing.T) {
	srv := New(simenv.New(1), faultinject.NewSet())
	for _, m := range Mechanisms {
		key := m.Key
		sc, ok := Scenario(srv, key)
		if !ok {
			t.Errorf("mechanism %s has no scenario", key)
			continue
		}
		if sc.Mechanism != key || len(sc.Ops) == 0 {
			t.Errorf("scenario %s malformed", key)
		}
	}
	if _, ok := Scenario(srv, "sqldb/no-such-bug"); ok {
		t.Error("unregistered mechanism sqldb/no-such-bug has a scenario")
	}
}

func TestEveryScenarioTriggersItsMechanism(t *testing.T) {
	for _, m := range Mechanisms {
		key := m.Key
		t.Run(key, func(t *testing.T) {
			env := simenv.New(7, simenv.WithFDLimit(64))
			srv := New(env, faultinject.NewSet(key))
			if err := srv.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			sc, _ := Scenario(srv, key)
			if sc.Stage != nil {
				sc.Stage()
			}
			var failure *faultinject.FailureError
			for _, op := range sc.Ops {
				if err := op.Do(); err != nil {
					fe, ok := faultinject.AsFailure(err)
					if !ok {
						t.Fatalf("op %s returned non-failure error: %v", op.Name, err)
					}
					failure = fe
					break
				}
			}
			if failure == nil {
				t.Fatalf("scenario never triggered %s", key)
			}
			if failure.Mechanism != key {
				t.Errorf("scenario for %s triggered %s", key, failure.Mechanism)
			}
		})
	}
}

func TestBTreeBasics(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 200; i++ {
		bt.Insert(IntValue(int64(i%50)), i)
	}
	if bt.Len() != 50 {
		t.Errorf("distinct keys = %d, want 50", bt.Len())
	}
	rows := bt.Lookup(IntValue(7))
	if len(rows) != 4 {
		t.Errorf("postings for 7 = %v", rows)
	}
	if got := bt.Lookup(IntValue(999)); got != nil {
		t.Errorf("missing key lookup = %v", got)
	}
	if !bt.Delete(IntValue(7), 7) {
		t.Error("delete failed")
	}
	if bt.Delete(IntValue(7), 7) {
		t.Error("double delete should miss")
	}
	if len(bt.Lookup(IntValue(7))) != 3 {
		t.Error("posting not removed")
	}
}

func TestBTreeScanOrder(t *testing.T) {
	bt := newBTree()
	for _, k := range []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0} {
		bt.Insert(IntValue(k), int(k))
	}
	var keys []int64
	bt.Scan(func(k Value, _ int) bool {
		keys = append(keys, k.I)
		return true
	})
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("scan out of order: %v", keys)
		}
	}
	// Early stop works.
	count := 0
	bt.Scan(func(Value, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

// Property: a B-tree scan yields keys in nondecreasing order and exactly the
// inserted postings, for arbitrary insertion sequences.
func TestBTreeScanProperty(t *testing.T) {
	f := func(keys []int16) bool {
		bt := newBTree()
		want := make(map[int64]int)
		for i, k := range keys {
			bt.Insert(IntValue(int64(k)), i)
			want[int64(k)]++
		}
		got := make(map[int64]int)
		prev := int64(-1 << 62)
		ordered := true
		bt.Scan(func(k Value, _ int) bool {
			if k.I < prev {
				ordered = false
			}
			prev = k.I
			got[k.I]++
			return true
		})
		if !ordered {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: parsing never panics and either errors or produces a statement
// with the right kind, for a grammar-directed family of inputs.
func TestParseProperty(t *testing.T) {
	f := func(n uint8, desc bool) bool {
		sql := fmt.Sprintf("SELECT k FROM t WHERE k < %d ORDER BY k", int(n))
		if desc {
			sql += " DESC"
		}
		st, err := Parse(sql)
		if err != nil {
			return false
		}
		return st.Kind == StmtSelect && st.Where != nil && st.OrderBy == "k" && st.OrderDesc == desc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{StrValue("a"), StrValue("b"), -1},
		{IntValue(9), StrValue("a"), -1},
		{StrValue("a"), IntValue(9), 1},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, in := range []string{"SELECT 'unterminated", "/* open comment", "a ! b", "a @ b"} {
		if _, err := lex(in); err == nil {
			t.Errorf("lex(%q) should fail", in)
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := lex("SELECT /* hidden */ * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.text == "hidden" {
			t.Error("comment leaked")
		}
	}
}

func TestStringEscapes(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES ('it''s')")
	if err != nil {
		t.Fatal(err)
	}
	if st.Values[0].S != "it's" {
		t.Errorf("escaped string = %q", st.Values[0].S)
	}
}

// Property: an indexed equality lookup returns exactly the rows a full scan
// would, for arbitrary key multisets and probes.
func TestIndexedLookupEqualsScanProperty(t *testing.T) {
	f := func(keys []uint8, probe uint8) bool {
		if len(keys) > 60 {
			keys = keys[:60]
		}
		indexed := newDB(t, nil)
		scanned := newDB(t, nil)
		mustExec(t, indexed, "CREATE TABLE t (k INT, name TEXT)")
		mustExec(t, indexed, "CREATE INDEX ki ON t (k)")
		mustExec(t, scanned, "CREATE TABLE t (k INT, name TEXT)")
		for i, k := range keys {
			stmt := fmt.Sprintf("INSERT INTO t VALUES (%d, 'r%d')", int(k)%16, i)
			mustExec(t, indexed, stmt)
			mustExec(t, scanned, stmt)
		}
		q := fmt.Sprintf("SELECT name FROM t WHERE k = %d ORDER BY name", int(probe)%16)
		a := mustExec(t, indexed, q)
		b := mustExec(t, scanned, q)
		if len(a.Rows) != len(b.Rows) {
			return false
		}
		for i := range a.Rows {
			if a.Rows[i][0].S != b.Rows[i][0].S {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIndexedLookupSkipsDeletedRows(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 5)
	mustExec(t, srv, "DELETE FROM t WHERE k = 3")
	rs := mustExec(t, srv, "SELECT * FROM t WHERE k = 3")
	if len(rs.Rows) != 0 {
		t.Errorf("deleted row surfaced via index: %v", rs.Rows)
	}
	rs = mustExec(t, srv, "SELECT * FROM t WHERE k = 4")
	if len(rs.Rows) != 1 {
		t.Errorf("live row missing via index: %v", rs.Rows)
	}
}

// TestUnknownWhereColumnErrors checks that a WHERE on a column the table
// lacks fails every statement that takes one with the same error, and that
// the failed UPDATE and DELETE leave the rows and the log untouched.
func TestUnknownWhereColumnErrors(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 3)
	before := fmt.Sprint(mustExec(t, srv, "SELECT * FROM t").Rows)
	seq := srv.store.Seq()
	const want = `sqldb: no column "nosuch" in table "t"`
	for _, q := range []string{
		"SELECT * FROM t WHERE nosuch = 1",
		"SELECT COUNT(*) FROM t WHERE nosuch = 1",
		"UPDATE t SET name = 'x' WHERE nosuch = 1",
		"DELETE FROM t WHERE nosuch = 1",
	} {
		if _, err := srv.Exec(q); err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", q, err, want)
		}
	}
	if after := fmt.Sprint(mustExec(t, srv, "SELECT * FROM t").Rows); after != before {
		t.Errorf("rows changed: %s, were %s", after, before)
	}
	if got := srv.store.Seq(); got != seq {
		t.Errorf("log advanced to seq %d from %d", got, seq)
	}
	if !srv.Running() {
		t.Error("a statement error killed the server")
	}
}

func TestDropTable(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 2)
	before := srv.Env().FDs().OwnedBy(Owner)
	mustExec(t, srv, "DROP TABLE t")
	if _, err := srv.Exec("SELECT * FROM t"); err == nil {
		t.Error("table should be gone")
	}
	if srv.Env().Disk().Exists("/var/db/t.ISD") {
		t.Error("datafile should be removed")
	}
	if got := srv.Env().FDs().OwnedBy(Owner); got != before-1 {
		t.Errorf("fd not released on drop: %d -> %d", before, got)
	}
	if _, err := srv.Exec("DROP TABLE missing"); err == nil {
		t.Error("dropping a missing table should fail")
	}
}

func TestValueAndTypeStrings(t *testing.T) {
	if IntValue(5).String() != "5" || StrValue("x").String() != "x" {
		t.Error("value strings wrong")
	}
	if TypeInt.String() != "INT" || TypeText.String() != "TEXT" {
		t.Error("type strings wrong")
	}
	if ColType(9).String() == "" {
		t.Error("unknown type string empty")
	}
}

func TestBTreeKeys(t *testing.T) {
	bt := newBTree()
	for _, k := range []int64{3, 1, 2, 3, 1} {
		bt.Insert(IntValue(k), int(k))
	}
	keys := bt.Keys()
	if len(keys) != 3 || keys[0].I != 1 || keys[2].I != 3 {
		t.Errorf("Keys = %v", keys)
	}
}

func TestParseErrorPaths(t *testing.T) {
	bad := []string{
		"",                                 // empty
		"CREATE",                           // bare create
		"CREATE TABLE",                     // no name
		"CREATE TABLE t",                   // no columns
		"CREATE TABLE t (",                 // unterminated
		"CREATE TABLE t (c)",               // missing type
		"CREATE INDEX i",                   // missing ON
		"CREATE INDEX i ON t",              // missing column
		"INSERT t VALUES (1)",              // missing INTO
		"INSERT INTO t (1)",                // missing VALUES
		"INSERT INTO t VALUES 1",           // missing paren
		"SELECT FROM t",                    // no columns
		"SELECT * t",                       // missing FROM
		"SELECT * FROM t WHERE",            // dangling where
		"SELECT * FROM t WHERE k",          // no operator
		"SELECT * FROM t WHERE k LIKE 'x'", // unsupported operator
		"SELECT * FROM t ORDER k",          // missing BY
		"SELECT * FROM t LIMIT x",          // non-numeric limit
		"UPDATE t",                         // missing SET
		"UPDATE t SET k",                   // missing =
		"UPDATE t SET k = k - 1",           // unsupported delta form
		"DELETE t",                         // missing FROM
		"LOCK t",                           // missing TABLES
		"UNLOCK t",                         // missing TABLES
		"FLUSH",                            // bare flush
		"OPTIMIZE t",                       // missing TABLE
		"WOBBLE TABLE t",                   // unknown verb
		"SELECT COUNT c FROM t",            // missing paren
		"SELECT * FROM t WHERE k = SELECT", // bad value
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseVarcharLength(t *testing.T) {
	st, err := Parse("CREATE TABLE t (name VARCHAR(255), k INT)")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cols) != 2 || st.Cols[0].Type != TypeText {
		t.Errorf("cols = %+v", st.Cols)
	}
}

func TestServerAccessors(t *testing.T) {
	srv := newDB(t, nil)
	if srv.Name() != "mysqld" {
		t.Errorf("Name = %q", srv.Name())
	}
	mustExec(t, srv, "CREATE TABLE t (k INT)")
	if srv.queries != 1 {
		t.Errorf("Queries = %d", srv.queries)
	}
}

// Property: ORDER BY on an indexed column returns exactly the rows, in
// exactly the order, the sort path would — ascending and descending, with
// duplicate keys.
func TestOrderByIndexEqualsSortProperty(t *testing.T) {
	f := func(keys []uint8, desc bool, bound uint8) bool {
		if len(keys) > 50 {
			keys = keys[:50]
		}
		indexed := newDB(t, nil)
		plain := newDB(t, nil)
		mustExec(t, indexed, "CREATE TABLE t (k INT, name TEXT)")
		mustExec(t, indexed, "CREATE INDEX ki ON t (k)")
		mustExec(t, plain, "CREATE TABLE t (k INT, name TEXT)")
		for i, k := range keys {
			stmt := fmt.Sprintf("INSERT INTO t VALUES (%d, 'r%03d')", int(k)%8, i)
			mustExec(t, indexed, stmt)
			mustExec(t, plain, stmt)
		}
		dir := ""
		if desc {
			dir = " DESC"
		}
		q := fmt.Sprintf("SELECT k, name FROM t WHERE k <= %d ORDER BY k%s", int(bound)%8, dir)
		a := mustExec(t, indexed, q)
		b := mustExec(t, plain, q)
		if len(a.Rows) != len(b.Rows) {
			return false
		}
		for i := range a.Rows {
			if a.Rows[i][0].I != b.Rows[i][0].I || a.Rows[i][1].S != b.Rows[i][1].S {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOrderByIndexSkipsDeleted(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 6)
	mustExec(t, srv, "DELETE FROM t WHERE k = 3")
	rs := mustExec(t, srv, "SELECT k FROM t ORDER BY k DESC")
	if len(rs.Rows) != 5 || rs.Rows[0][0].I != 6 || rs.Rows[4][0].I != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
}
