package sqldb

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"faultstudy/internal/durable"
)

// The reference evaluator: SELECT, COUNT, UPDATE and DELETE as the
// plainest per-row scan. Every row looks its WHERE column up by name and
// evaluates the operator by its text; COUNT(*) counts live rows one by
// one; UPDATE scans once to plan and again to apply; every result row is
// its own allocation. It runs with no seeded bug active, so the bug paths
// are left out.

// refExec parses and runs one statement like Exec, through the reference
// evaluator for SELECT, UPDATE and DELETE and through the executor for
// everything else.
func (s *Server) refExec(sql string) (*ResultSet, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return nil, errors.New("sqldb: not running")
	}
	s.queries++
	switch st.Kind {
	case StmtSelect:
		return s.refSelect(st)
	case StmtUpdate:
		return nil, s.refUpdate(st)
	case StmtDelete:
		return nil, s.refDelete(st)
	default:
		return s.execStmt(st)
	}
}

// refMatches evaluates a condition against a value by the operator's text.
func refMatches(c *Cond, v Value) bool {
	cmp := v.Compare(c.Val)
	switch c.Op {
	case "=":
		return cmp == 0
	case "<":
		return cmp < 0
	case ">":
		return cmp > 0
	case "<=":
		return cmp <= 0
	case ">=":
		return cmp >= 0
	case "!=", "<>":
		return cmp != 0
	default:
		return false
	}
}

// refRowMatches looks the condition's column up for this one row; an
// unknown column matches nothing.
func refRowMatches(t *table, rowID int, cond *Cond) bool {
	ci, err := t.colIndex(cond.Col)
	if err != nil {
		return false
	}
	return refMatches(cond, t.rows[rowID][ci])
}

func refMatchRows(t *table, cond *Cond) ([]int, error) {
	if cond != nil {
		if _, err := t.colIndex(cond.Col); err != nil {
			return nil, err
		}
		if idx, ok := t.indexes[cond.Col]; ok && cond.Op == "=" {
			rows := idx.Lookup(cond.Val)
			sort.Ints(rows)
			live := rows[:0]
			for _, rowID := range rows {
				if t.rows[rowID] != nil {
					live = append(live, rowID)
				}
			}
			return live, nil
		}
	}
	matched := make([]int, 0, t.live)
	for rowID, row := range t.rows {
		if row == nil {
			continue
		}
		if cond != nil && !refRowMatches(t, rowID, cond) {
			continue
		}
		matched = append(matched, rowID)
	}
	return matched, nil
}

func (s *Server) refSelect(st *Statement) (*ResultSet, error) {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	if st.CountCol != "" {
		if st.CountCol != "*" {
			if _, err := t.colIndex(st.CountCol); err != nil {
				return nil, err
			}
		}
		count := int64(0)
		for rowID, row := range t.rows {
			if row == nil {
				continue
			}
			if st.Where != nil && !refRowMatches(t, rowID, st.Where) {
				continue
			}
			count++
		}
		return &ResultSet{IsCount: true, Count: count}, nil
	}
	matched, err := refMatchRows(t, st.Where)
	if err != nil {
		return nil, err
	}
	if st.OrderBy != "" {
		ci, err := t.colIndex(st.OrderBy)
		if err != nil {
			return nil, err
		}
		if idx, ok := t.indexes[st.OrderBy]; ok {
			matched = orderByIndex(idx, matched, st.OrderDesc)
		} else {
			sort.SliceStable(matched, func(i, j int) bool {
				cmp := t.rows[matched[i]][ci].Compare(t.rows[matched[j]][ci])
				if st.OrderDesc {
					return cmp > 0
				}
				return cmp < 0
			})
		}
	}
	if st.Limit >= 0 && len(matched) > st.Limit {
		matched = matched[:st.Limit]
	}
	var names []string
	var proj []int
	if len(st.SelectCols) == 1 && st.SelectCols[0] == "*" {
		for i, c := range t.cols {
			names = append(names, c.Name)
			proj = append(proj, i)
		}
	} else {
		for _, name := range st.SelectCols {
			ci, err := t.colIndex(name)
			if err != nil {
				return nil, err
			}
			names = append(names, name)
			proj = append(proj, ci)
		}
	}
	rs := &ResultSet{Cols: names}
	for _, rowID := range matched {
		out := make(Row, len(proj))
		for i, ci := range proj {
			out[i] = t.rows[rowID][ci]
		}
		rs.Rows = append(rs.Rows, out)
	}
	return rs, nil
}

func (s *Server) refUpdate(st *Statement) error {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return err
	}
	ci, err := t.colIndex(st.SetCol)
	if err != nil {
		return err
	}
	idx := t.indexes[st.SetCol]
	newVal := func(old Value) (Value, error) {
		if st.SetDelta != nil {
			if !old.IsInt {
				return Value{}, fmt.Errorf("sqldb: arithmetic update on non-integer column %q", st.SetCol)
			}
			return IntValue(old.I + *st.SetDelta), nil
		}
		return st.SetVal, nil
	}
	var planOps []durable.Op
	for rowID, row := range t.rows {
		if row == nil || st.Where != nil && !refRowMatches(t, rowID, st.Where) {
			continue
		}
		nv, err := newVal(row[ci])
		if err != nil {
			return err
		}
		updated := append(Row(nil), row...)
		updated[ci] = nv
		planOps = append(planOps, rowOp(t.name, rowID, updated))
	}
	if len(planOps) > 0 {
		if err := s.logDurable("update", planOps); err != nil {
			return err
		}
	}
	var targets []int
	for rowID, row := range t.rows {
		if row == nil || st.Where != nil && !refRowMatches(t, rowID, st.Where) {
			continue
		}
		targets = append(targets, rowID)
	}
	for _, rowID := range targets {
		nv, err := newVal(t.rows[rowID][ci])
		if err != nil {
			return err
		}
		if idx != nil {
			idx.Delete(t.rows[rowID][ci], rowID)
			idx.Insert(nv, rowID)
		}
		t.rows[rowID][ci] = nv
	}
	return nil
}

func (s *Server) refDelete(st *Statement) error {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return err
	}
	var ops []durable.Op
	for rowID, row := range t.rows {
		if row == nil || st.Where != nil && !refRowMatches(t, rowID, st.Where) {
			continue
		}
		ops = append(ops, rowOp(t.name, rowID, nil))
	}
	if len(ops) > 0 {
		if err := s.logDurable("delete", ops); err != nil {
			return err
		}
	}
	for rowID, row := range t.rows {
		if row == nil || st.Where != nil && !refRowMatches(t, rowID, st.Where) {
			continue
		}
		for col, idx := range t.indexes {
			ci, err := t.colIndex(col)
			if err != nil {
				return err
			}
			idx.Delete(row[ci], rowID)
		}
		t.rows[rowID] = nil
		t.live--
	}
	return nil
}

// scanOps are the six WHERE operators.
var scanOps = []string{"=", "<", ">", "<=", ">=", "!="}

// scanWhere draws a WHERE clause, or none, from two input bytes. Only the
// tables' own columns appear: an unknown column is an error in the
// executor and matches nothing in the reference, which
// TestUnknownWhereColumnErrors covers.
func scanWhere(sel, arg byte) string {
	op := int(sel>>3) % (len(scanOps) + 1)
	switch {
	case op == len(scanOps):
		return ""
	case sel&0x40 != 0:
		return fmt.Sprintf(" WHERE name %s '%s'", scanOps[op], fuzzText(arg))
	default:
		return fmt.Sprintf(" WHERE k %s %d", scanOps[op], int(arg%16)-2)
	}
}

// scanStatement maps two input bytes to one mutation of table t (indexed
// on both columns) or u (no index).
func scanStatement(op, arg byte) string {
	tbl := "t"
	if op&0x80 != 0 {
		tbl = "u"
	}
	where := scanWhere(op, arg)
	switch op % 8 {
	case 6:
		return "OPTIMIZE TABLE " + tbl
	case 7:
		return "DELETE FROM " + tbl
	case 0, 1:
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s')", tbl, int(arg%16)-2, fuzzText(arg/3))
	case 2:
		return fmt.Sprintf("UPDATE %s SET name = '%s'%s", tbl, fuzzText(arg/5), where)
	case 3:
		return fmt.Sprintf("UPDATE %s SET k = k + %d%s", tbl, []int{1, 2, -1, 7, 0}[arg%5], where)
	case 4:
		return fmt.Sprintf("UPDATE %s SET k = %d%s", tbl, int(arg%7), where)
	default:
		return fmt.Sprintf("DELETE FROM %s%s", tbl, where)
	}
}

// scanQueries is every read checked after a step: each operator on each
// column, ORDER BY in both directions with and without LIMIT, a
// projection, and COUNT with and without WHERE.
func scanQueries(tbl string, arg byte) []string {
	var qs []string
	for _, op := range scanOps {
		for _, where := range []string{
			fmt.Sprintf(" WHERE k %s %d", op, int(arg%16)-2),
			fmt.Sprintf(" WHERE name %s '%s'", op, fuzzText(arg)),
		} {
			for _, tail := range []string{"", " ORDER BY k", " ORDER BY name DESC", " ORDER BY k DESC LIMIT 3", " ORDER BY name ASC LIMIT 1"} {
				qs = append(qs, "SELECT * FROM "+tbl+where+tail)
			}
			qs = append(qs, "SELECT name, k FROM "+tbl+where+" LIMIT 2",
				"SELECT COUNT(*) FROM "+tbl+where, "SELECT COUNT(name) FROM "+tbl+where)
		}
	}
	return append(qs, "SELECT * FROM "+tbl, "SELECT COUNT(*) FROM "+tbl, "SELECT COUNT(k) FROM "+tbl)
}

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// storeFiles reads the durable store's files off the server's disk.
func storeFiles(t *testing.T, s *Server) map[string]string {
	t.Helper()
	files := map[string]string{}
	for _, name := range []string{storeDir + "/wal.log", storeDir + "/checkpoint.db"} {
		if !s.env.Disk().Exists(name) {
			continue
		}
		b, err := s.env.Disk().ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(b)
	}
	return files
}

// checkAgainstScan compares the server with the reference-driven one:
// every read, each table's live count against its non-nil rows, and the
// store's bytes on disk.
func checkAgainstScan(t *testing.T, got, ref *Server, arg byte) {
	t.Helper()
	for _, tbl := range []string{"t", "u"} {
		for _, q := range scanQueries(tbl, arg) {
			g, gerr := got.Exec(q)
			w, werr := ref.refExec(q)
			if errText(gerr) != errText(werr) || !reflect.DeepEqual(g, w) {
				t.Fatalf("%s\n got %+v, %v\nwant %+v, %v", q, g, gerr, w, werr)
			}
		}
	}
	got.mu.Lock()
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
	got.mu.Unlock()
	if g, w := storeFiles(t, got), storeFiles(t, ref); !reflect.DeepEqual(g, w) {
		t.Fatalf("store files differ from the reference's\n got %q\nwant %q", g, w)
	}
}

// scanRestore snapshots the server, lets it diverge by one insert, and
// restores the snapshot: by WAL replay, or with the store destroyed first,
// by the snapshot's own tables.
func scanRestore(t *testing.T, s *Server, exec func(string) (*ResultSet, error), fallback bool) {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec("INSERT INTO t VALUES (99, 'diverged')"); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if fallback {
		if err := s.store.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

// FuzzExecMatchesScan drives two servers through one history of INSERT,
// UPDATE (= and + n), DELETE, OPTIMIZE and Snapshot/Restore (an op byte of
// 6 mod 8 with an argument of 0 mod 4: through WAL replay, or through the
// snapshot's tables when the argument is 4 mod 8) over an indexed and an unindexed table: one through Exec,
// the other through the reference evaluator. After every step each SELECT
// and COUNT must answer the same, every live count must equal the table's
// non-nil rows, and the durable store's bytes must match.
func FuzzExecMatchesScan(f *testing.F) {
	f.Add([]byte{0, 3, 1, 9, 0x80, 4, 0x81, 12, 2, 5, 3, 2, 0x43, 7, 5, 3, 6, 0, 0x85, 40, 7, 0, 4, 1})
	f.Add([]byte{1, 1, 1, 2, 1, 3, 0x81, 1, 0x81, 2, 0x0b, 6, 0x8b, 6, 0x33, 9, 6, 4, 0x35, 200, 6, 9, 0x0c, 3, 7, 1, 0x2d, 8})
	f.Add([]byte{0, 15, 0, 0, 0, 7, 0x45, 1, 0x56, 2, 0x80, 3, 6, 12, 0x80, 9, 0xc2, 4, 0x9d, 5, 6, 8, 6, 6, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		got, ref := fuzzDB(), fuzzDB()
		for _, s := range []*Server{got, ref} {
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for _, stmt := range []string{
			"CREATE TABLE t (k INT, name TEXT)", "CREATE INDEX ki ON t (k)",
			"CREATE INDEX ni ON t (name)", "CREATE TABLE u (k INT, name TEXT)",
		} {
			mustExec(t, got, stmt)
			if _, err := ref.refExec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op%8 == 6 && arg%4 == 0 {
				scanRestore(t, got, got.Exec, arg%8 == 4)
				scanRestore(t, ref, ref.refExec, arg%8 == 4)
			} else {
				stmt := scanStatement(op, arg)
				_, gerr := got.Exec(stmt)
				_, werr := ref.refExec(stmt)
				if errText(gerr) != errText(werr) {
					t.Fatalf("%s: err %v, reference %v", stmt, gerr, werr)
				}
			}
			checkAgainstScan(t, got, ref, arg)
		}
	})
}
