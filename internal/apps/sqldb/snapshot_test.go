package sqldb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"faultstudy/internal/simenv"
)

// stateOf reads the server's logical state into the snapshot's state
// struct, tables and index lists sorted by name. Rendered as JSON it is the
// reference the binary codec is checked against.
func stateOf(s *Server) dbState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := dbState{LockedTable: s.lockedTable, Queries: s.queries, PendingGrants: s.pendingGrants}
	if s.store != nil {
		st.DurableSeq = s.store.Seq()
	}
	for _, t := range s.tables {
		ts := tableState{Name: t.name, Cols: append([]ColDef(nil), t.cols...), Indexes: indexList(t)}
		for _, row := range t.rows {
			ts.Rows = append(ts.Rows, append(Row(nil), row...))
		}
		st.Tables = append(st.Tables, ts)
	}
	sort.Slice(st.Tables, func(i, j int) bool { return st.Tables[i].Name < st.Tables[j].Name })
	return st
}

// renderTables renders the restored data plane, leaving out DurableSeq: a
// logical fallback resyncs the store under a new sequence number.
func renderTables(t *testing.T, s *Server) string {
	t.Helper()
	st := stateOf(s)
	st.DurableSeq = 0
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func fuzzDB() *Server {
	return New(simenv.New(6, simenv.WithDiskBytes(1<<30), simenv.WithMaxFileSize(1<<28)), nil)
}

// fuzzText draws a short valid-UTF-8 string literal body from the input.
// Only valid UTF-8 can be compared through JSON, which rewrites invalid
// bytes.
func fuzzText(b byte) string {
	alphabet := []string{"", "a", "b", "é", "''", " ", "\x00", "row"}
	return alphabet[b%8] + alphabet[(b/8)%8]
}

// fuzzStatement maps two input bytes to one SQL statement over tables t
// and u.
func fuzzStatement(op, arg byte) string {
	tbl := "t"
	if op&0x80 != 0 {
		tbl = "u"
	}
	n := int(arg % 16)
	switch op % 16 {
	case 0:
		return "CREATE TABLE " + tbl + " (k INT, name TEXT)"
	case 1:
		if arg%2 == 0 {
			return "CREATE INDEX ki ON " + tbl + " (k)"
		}
		return "CREATE INDEX ni ON " + tbl + " (name)"
	case 2, 3, 4:
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s')", tbl, n, fuzzText(arg))
	case 5, 6:
		return fmt.Sprintf("DELETE FROM %s WHERE k = %d", tbl, n)
	case 7:
		return fmt.Sprintf("UPDATE %s SET name = '%s' WHERE k > %d", tbl, fuzzText(arg), n)
	case 8:
		return fmt.Sprintf("UPDATE %s SET k = k + 1 WHERE k < %d", tbl, n)
	case 9:
		return "OPTIMIZE TABLE " + tbl
	case 10:
		return "DROP TABLE " + tbl
	case 11:
		return "LOCK TABLES " + tbl + " WRITE"
	case 12:
		return "UNLOCK TABLES"
	case 13:
		return "GRANT SELECT ON " + tbl + " TO bob"
	case 14:
		return "FLUSH PRIVILEGES"
	default:
		return fmt.Sprintf("SELECT * FROM %s WHERE k >= %d ORDER BY name", tbl, n)
	}
}

// FuzzSnapshotRoundTrip drives a server through a statement sequence drawn
// from the input, then checks that Snapshot → Stop → Restore into a fresh
// server (whose empty store forces the rebuild from the snapshot's table
// section) yields the same logical state as restoring the JSON rendering of
// the state struct, and the tables the snapshot was taken of. The raw
// input, fed to Restore, must fail or restore without panicking.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 2, 17, 3, 200, 5, 3, 7, 9, 9, 0, 11, 0, 13, 0})
	f.Add([]byte{0x80, 0, 0x81, 1, 0x82, 5, 0x82, 6, 0x86, 5, 0x88, 9})
	if snap, err := fuzzDB().Snapshot(); err == nil {
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = fuzzDB().Restore(data)

		srv := fuzzDB()
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(data); i += 2 {
			_, _ = srv.Exec(fuzzStatement(data[i], data[i+1]))
		}
		ref, err := json.Marshal(stateOf(srv))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := srv.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		before := renderTables(t, srv)
		srv.Stop()

		got := fuzzDB()
		if err := got.Restore(snap); err != nil {
			t.Fatalf("restore: %v", err)
		}
		var st dbState
		if err := json.Unmarshal(ref, &st); err != nil {
			t.Fatal(err)
		}
		want := fuzzDB()
		if err := want.restoreState(st); err != nil {
			t.Fatalf("reference restore: %v", err)
		}
		if g, w := renderTables(t, got), renderTables(t, want); g != w {
			t.Errorf("restored state\n got %s\nwant %s", g, w)
		}
		if g := renderTables(t, got); g != before {
			t.Errorf("restored state %s, snapshot taken of %s", g, before)
		}
		got.mu.Lock()
		defer got.mu.Unlock()
		for name, tbl := range got.tables {
			live := 0
			for _, row := range tbl.rows {
				if row != nil {
					live++
				}
			}
			if live != tbl.live {
				t.Errorf("table %q live count %d, %d rows live", name, tbl.live, live)
			}
		}
	})
}

// tableView is everything a client or the executor can observe of one
// restored table.
type tableView struct {
	Rows    []Row
	Live    int
	Lookups map[string][]int // "column=value" -> index posting
	Selects []string
}

func viewTables(t *testing.T, s *Server) map[string]tableView {
	t.Helper()
	views := map[string]tableView{}
	s.mu.Lock()
	for name, tbl := range s.tables {
		v := tableView{Rows: tbl.rows, Live: tbl.live, Lookups: map[string][]int{}}
		for col, idx := range tbl.indexes {
			ci, err := tbl.colIndex(col)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range tbl.rows {
				if row != nil {
					v.Lookups[col+"="+row[ci].String()] = idx.Lookup(row[ci])
				}
			}
			v.Lookups[col+"=absent"] = idx.Lookup(StrValue("absent"))
		}
		views[name] = v
	}
	s.mu.Unlock()
	for name, v := range views {
		for _, q := range []string{
			"SELECT * FROM %s",
			"SELECT * FROM %s WHERE k = 3",
			"SELECT name FROM %s WHERE k >= 2 ORDER BY k DESC",
			"SELECT COUNT(*) FROM %s",
		} {
			rs := mustExec(t, s, fmt.Sprintf(q, name))
			v.Selects = append(v.Selects, fmt.Sprint(rs.Rows, rs.Count))
		}
		views[name] = v
	}
	return views
}

// TestRestorePathsAgree restores one snapshot twice — through WAL replay,
// then through the logical fallback after the store is destroyed — and
// checks both give identical tables: rows, tombstones, live counts, index
// lookups and SELECT results. The WAL is the oracle for the snapshot's
// table section.
func TestRestorePathsAgree(t *testing.T) {
	srv := newDB(t, nil)
	seed(t, srv, 8)
	mustExec(t, srv, "CREATE INDEX n_idx ON t (name)")
	mustExec(t, srv, "DELETE FROM t WHERE k = 2")
	mustExec(t, srv, "DELETE FROM t WHERE k = 5")
	mustExec(t, srv, "UPDATE t SET name = 'same' WHERE k > 5")
	mustExec(t, srv, "INSERT INTO t VALUES (3, 'dup')")
	mustExec(t, srv, "CREATE TABLE e (k INT, name TEXT)")
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Diverge, so the replay has a log suffix to discard.
	mustExec(t, srv, "INSERT INTO t VALUES (9, 'late')")
	mustExec(t, srv, "DELETE FROM t WHERE k = 1")
	mustExec(t, srv, "DROP TABLE e")
	srv.Stop()

	if err := srv.Restore(snap); err != nil {
		t.Fatalf("restore by replay: %v", err)
	}
	if srv.WALReplays() != 1 || srv.LogicalFallbacks() != 0 {
		t.Fatalf("replays/fallbacks = %d/%d, want 1/0", srv.WALReplays(), srv.LogicalFallbacks())
	}
	replayed := viewTables(t, srv)

	srv.Stop()
	if err := srv.store.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore(snap); err != nil {
		t.Fatalf("restore by fallback: %v", err)
	}
	if srv.WALReplays() != 1 || srv.LogicalFallbacks() != 1 {
		t.Fatalf("replays/fallbacks = %d/%d, want 1/1", srv.WALReplays(), srv.LogicalFallbacks())
	}
	rebuilt := viewTables(t, srv)

	if len(replayed) != 2 || replayed["t"].Live != 7 || len(replayed["t"].Rows) != 9 {
		t.Fatalf("replayed tables do not hold the snapshot's data: %+v", replayed)
	}
	// Compared as rendered: replay leaves an empty table's rows nil, the
	// fallback an empty slice, and no reader tells the two apart.
	if fmt.Sprintf("%+v", replayed) != fmt.Sprintf("%+v", rebuilt) {
		t.Errorf("restore paths disagree\nreplay   %+v\nfallback %+v", replayed, rebuilt)
	}
	if !strings.Contains(fmt.Sprint(replayed["t"].Selects), "dup") {
		t.Errorf("SELECT results miss the post-delete insert: %v", replayed["t"].Selects)
	}
}
