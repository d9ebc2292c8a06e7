package sqldb

import (
	"errors"
	"fmt"
	"sort"

	"faultstudy/internal/durable"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

// Row is one table row.
type Row []Value

// table is one stored table: schema, rows, and secondary indexes. Deleted
// rows leave nil holes until OPTIMIZE TABLE compacts them (as the ISAM
// format did).
type table struct {
	name    string
	cols    []ColDef
	rows    []Row // index = row id; nil = deleted
	live    int
	indexes map[string]*btree // column -> index
	fd      simenv.FD         // the table's open datafile descriptor
	hasFD   bool
}

func (t *table) colIndex(name string) (int, error) {
	for i, c := range t.cols {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sqldb: no column %q in table %q", name, t.name)
}

// buildIndex builds a B-tree over column ci of t's live rows.
func (t *table) buildIndex(ci int) *btree {
	idx := newBTree()
	for rowID, row := range t.rows {
		if row != nil {
			idx.Insert(row[ci], rowID)
		}
	}
	return idx
}

func (t *table) dataFile() string { return "/var/db/" + t.name + ".ISD" }

// rowBytes is the disk accounting charge per stored row.
const rowBytes = 64

// ResultSet is the answer to a SELECT.
type ResultSet struct {
	// Cols names the returned columns.
	Cols []string
	// Rows holds the returned rows.
	Rows []Row
	// Count is the COUNT(...) answer when the query was an aggregate.
	Count int64
	// IsCount marks aggregate results.
	IsCount bool
}

// execStmt runs one parsed statement inside the server (s.mu held).
func (s *Server) execStmt(st *Statement) (*ResultSet, error) {
	switch st.Kind {
	case StmtCreateTable:
		return nil, s.createTable(st)
	case StmtDropTable:
		return nil, s.dropTable(st.Table)
	case StmtCreateIndex:
		return nil, s.createIndex(st)
	case StmtInsert:
		return nil, s.insertRow(st)
	case StmtSelect:
		return s.selectRows(st)
	case StmtUpdate:
		return nil, s.updateRows(st)
	case StmtDelete:
		return nil, s.deleteRows(st)
	case StmtLockTables:
		return nil, s.lockTable(st)
	case StmtUnlockTables:
		s.lockedTable = ""
		return nil, nil
	case StmtFlushTables:
		return nil, s.flushTables()
	case StmtFlushPrivileges:
		return nil, s.flushPrivileges()
	case StmtOptimizeTable:
		return nil, s.optimizeTable(st.Table)
	case StmtGrant:
		s.pendingGrants++
		return nil, nil
	default:
		return nil, fmt.Errorf("sqldb: unhandled statement kind %d", st.Kind)
	}
}

func (s *Server) lookupTable(name string) (*table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", name)
	}
	return t, nil
}

func (s *Server) createTable(st *Statement) error {
	if _, exists := s.tables[st.Table]; exists {
		return fmt.Errorf("sqldb: table %q already exists", st.Table)
	}
	t := &table{name: st.Table, cols: append([]ColDef(nil), st.Cols...), indexes: make(map[string]*btree)}
	if err := s.openTableFD(t); err != nil {
		return err
	}
	if err := s.logDurable("create table", []durable.Op{schemaOp(t, nil)}); err != nil {
		_ = s.env.FDs().Close(t.fd)
		return err
	}
	s.tables[st.Table] = t
	return nil
}

// openTableFD opens the table's datafile descriptor — the point where the
// fd-competition condition bites.
func (s *Server) openTableFD(t *table) error {
	fd, err := s.env.FDs().Open(Owner)
	if err != nil {
		if s.faults.Enabled(MechFDCompetition) {
			return faultinject.FailCause(MechFDCompetition, taxonomy.SymptomError,
				"cannot open table datafile: descriptors exhausted by a co-hosted server", err)
		}
		return fmt.Errorf("sqldb: open table %q: %w", t.name, err)
	}
	t.fd, t.hasFD = fd, true
	return nil
}

func (s *Server) dropTable(name string) error {
	t, err := s.lookupTable(name)
	if err != nil {
		return err
	}
	ops := []durable.Op{{Kind: durable.OpDelete, Key: schemaKey(name)}}
	for id := range t.rows {
		ops = append(ops, durable.Op{Kind: durable.OpDelete, Key: rowKey(name, id)})
	}
	if err := s.logDurable("drop table", ops); err != nil {
		return err
	}
	if t.hasFD {
		_ = s.env.FDs().Close(t.fd)
	}
	if s.env.Disk().Exists(t.dataFile()) {
		_ = s.env.Disk().Remove(t.dataFile())
	}
	delete(s.tables, name)
	return nil
}

func (s *Server) createIndex(st *Statement) error {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return err
	}
	ci, err := t.colIndex(st.IndexCol)
	if err != nil {
		return err
	}
	if _, dup := t.indexes[st.IndexCol]; dup {
		return fmt.Errorf("sqldb: column %q already indexed", st.IndexCol)
	}
	if err := s.logDurable("create index",
		[]durable.Op{schemaOp(t, append(indexList(t), st.IndexCol))}); err != nil {
		return err
	}
	t.indexes[st.IndexCol] = t.buildIndex(ci)
	return nil
}

func (s *Server) insertRow(st *Statement) error {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return err
	}
	if len(st.Values) != len(t.cols) {
		return fmt.Errorf("sqldb: table %q has %d columns, insert supplies %d",
			t.name, len(t.cols), len(st.Values))
	}
	for i, v := range st.Values {
		if t.cols[i].Type == TypeInt && !v.IsInt {
			return fmt.Errorf("sqldb: column %q wants INT, got %q", t.cols[i].Name, v.S)
		}
	}
	// Charge the datafile before committing the row.
	if err := s.env.Disk().Append(t.dataFile(), Owner, rowBytes); err != nil {
		switch {
		case errors.Is(err, simenv.ErrFileTooLarge) && s.faults.Enabled(MechDBFileLimit):
			return faultinject.FailCause(MechDBFileLimit, taxonomy.SymptomError,
				"database file exceeds the maximum allowed file size", err)
		case errors.Is(err, simenv.ErrDiskFull) && s.faults.Enabled(MechFSFull):
			return faultinject.FailCause(MechFSFull, taxonomy.SymptomError,
				"full file system prevents all operations", err)
		default:
			return fmt.Errorf("sqldb: insert into %q: %w", t.name, err)
		}
	}
	rowID := len(t.rows)
	row := append(Row(nil), st.Values...)
	if err := s.logDurable("insert", []durable.Op{rowOp(t.name, rowID, row)}); err != nil {
		// Un-charge the datafile bytes the uncommitted row claimed.
		_ = s.env.Disk().Shrink(t.dataFile(), rowBytes)
		return err
	}
	t.rows = append(t.rows, row)
	t.live++
	for col, idx := range t.indexes {
		ci, cerr := t.colIndex(col)
		if cerr != nil {
			return cerr
		}
		idx.Insert(row[ci], rowID)
	}
	return nil
}

func (s *Server) selectRows(st *Statement) (*ResultSet, error) {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}

	if st.CountCol != "" {
		if t.live == 0 && s.faults.Enabled(MechCountEmpty) {
			s.crash()
			return nil, faultinject.Fail(MechCountEmpty, taxonomy.SymptomCrash,
				"COUNT on an empty table dereferences the missing first block")
		}
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
			if st.Where != nil && !s.rowMatches(t, rowID, st.Where) {
				continue
			}
			count++
		}
		return &ResultSet{IsCount: true, Count: count}, nil
	}

	matched, err := s.matchRows(t, st.Where)
	if err != nil {
		return nil, err
	}

	if st.OrderBy != "" {
		ci, err := t.colIndex(st.OrderBy)
		if err != nil {
			return nil, err
		}
		if len(matched) == 0 && s.faults.Enabled(MechOrderByEmpty) {
			s.crash()
			return nil, faultinject.Fail(MechOrderByEmpty, taxonomy.SymptomCrash,
				"sort setup reads uninitialized state when zero records match")
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

	cols, proj, err := projection(t, st.SelectCols)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Cols: cols}
	for _, rowID := range matched {
		src := t.rows[rowID]
		out := make(Row, len(proj))
		for i, ci := range proj {
			out[i] = src[ci]
		}
		rs.Rows = append(rs.Rows, out)
	}
	return rs, nil
}

func projection(t *table, sel []string) (names []string, colIdx []int, err error) {
	if len(sel) == 1 && sel[0] == "*" {
		for i, c := range t.cols {
			names = append(names, c.Name)
			colIdx = append(colIdx, i)
		}
		return names, colIdx, nil
	}
	for _, name := range sel {
		ci, err := t.colIndex(name)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, name)
		colIdx = append(colIdx, ci)
	}
	return names, colIdx, nil
}

// orderByIndex orders the matched row ids by walking the sort column's
// B-tree instead of sorting — the index-order scan a real executor would
// plan. Row ids within one key keep ascending order (the stable-sort
// behaviour of the scan path).
func orderByIndex(idx *btree, matched []int, desc bool) []int {
	want := make(map[int]bool, len(matched))
	for _, rowID := range matched {
		want[rowID] = true
	}
	var (
		groups  [][]int
		perKey  []int
		lastKey *Value
	)
	flush := func() {
		if len(perKey) > 0 {
			sort.Ints(perKey)
			groups = append(groups, perKey)
			perKey = nil
		}
	}
	idx.Scan(func(key Value, rowID int) bool {
		if lastKey == nil || lastKey.Compare(key) != 0 {
			flush()
			k := key
			lastKey = &k
		}
		if want[rowID] {
			perKey = append(perKey, rowID)
		}
		return true
	})
	flush()
	if desc {
		for i, j := 0, len(groups)-1; i < j; i, j = i+1, j-1 {
			groups[i], groups[j] = groups[j], groups[i]
		}
	}
	ordered := make([]int, 0, len(matched))
	for _, g := range groups {
		ordered = append(ordered, g...)
	}
	return ordered
}

// matchRows returns the live row ids satisfying the condition, in row-id
// order. Equality conditions on an indexed column use the B-tree; everything
// else scans.
func (s *Server) matchRows(t *table, cond *Cond) ([]int, error) {
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
		if cond != nil && !s.rowMatches(t, rowID, cond) {
			continue
		}
		matched = append(matched, rowID)
	}
	return matched, nil
}

func (s *Server) rowMatches(t *table, rowID int, cond *Cond) bool {
	ci, err := t.colIndex(cond.Col)
	if err != nil {
		return false
	}
	return cond.Matches(t.rows[rowID][ci])
}

func (s *Server) updateRows(st *Statement) error {
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
		if st.SetDelta != 0 {
			if !old.IsInt {
				return Value{}, fmt.Errorf("sqldb: arithmetic update on non-integer column %q", st.SetCol)
			}
			return IntValue(old.I + st.SetDelta), nil
		}
		return st.SetVal, nil
	}

	// Plan the statement's final row images with the fixed algorithm and
	// WAL them before touching memory: the log carries the statement as one
	// atomic batch, so replay never sees a half-applied UPDATE even when the
	// in-place scan below dies halfway through.
	var planOps []durable.Op
	for rowID, row := range t.rows {
		if row == nil {
			continue
		}
		if st.Where != nil && !s.rowMatches(t, rowID, st.Where) {
			continue
		}
		nv, nerr := newVal(row[ci])
		if nerr != nil {
			return nerr
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

	// The seeded index-update-scan bug: when the updated column is indexed
	// and the bug is active, the engine walks the index and updates rows in
	// place. An update that moves a key *forward* is re-encountered later in
	// the same scan; the engine notices the duplicate and dies, as the
	// original did when the index grew duplicate values.
	if idx != nil && s.faults.Enabled(MechIndexUpdateScan) {
		updated := make(map[int]bool)
		var ferr error
		idx.Scan(func(key Value, rowID int) bool {
			row := t.rows[rowID]
			if row == nil {
				return true
			}
			if st.Where != nil && !s.rowMatches(t, rowID, st.Where) {
				return true
			}
			if updated[rowID] {
				s.crash()
				ferr = faultinject.Fail(MechIndexUpdateScan, taxonomy.SymptomCrash,
					"index scan re-encountered a row it already updated: duplicate index values")
				return false
			}
			nv, nerr := newVal(row[ci])
			if nerr != nil {
				ferr = nerr
				return false
			}
			idx.Delete(row[ci], rowID)
			row[ci] = nv
			idx.Insert(nv, rowID)
			updated[rowID] = true
			return true
		})
		return ferr
	}

	// The fixed algorithm (the paper's fix): first scan for all matching
	// rows, then update the found rows.
	var targets []int
	for rowID, row := range t.rows {
		if row == nil {
			continue
		}
		if st.Where != nil && !s.rowMatches(t, rowID, st.Where) {
			continue
		}
		targets = append(targets, rowID)
	}
	for _, rowID := range targets {
		nv, nerr := newVal(t.rows[rowID][ci])
		if nerr != nil {
			return nerr
		}
		if idx != nil {
			idx.Delete(t.rows[rowID][ci], rowID)
			idx.Insert(nv, rowID)
		}
		t.rows[rowID][ci] = nv
	}
	return nil
}

func (s *Server) deleteRows(st *Statement) error {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return err
	}
	// WAL the victims' tombstones as one atomic batch before deleting.
	var ops []durable.Op
	for rowID, row := range t.rows {
		if row == nil {
			continue
		}
		if st.Where != nil && !s.rowMatches(t, rowID, st.Where) {
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
		if row == nil {
			continue
		}
		if st.Where != nil && !s.rowMatches(t, rowID, st.Where) {
			continue
		}
		for col, idx := range t.indexes {
			ci, cerr := t.colIndex(col)
			if cerr != nil {
				return cerr
			}
			idx.Delete(row[ci], rowID)
		}
		t.rows[rowID] = nil
		t.live--
	}
	return nil
}

func (s *Server) lockTable(st *Statement) error {
	if _, err := s.lookupTable(st.Table); err != nil {
		return err
	}
	s.lockedTable = st.Table
	return nil
}

func (s *Server) flushTables() error {
	if s.lockedTable != "" && s.faults.Enabled(MechFlushAfterLock) {
		s.crash()
		return faultinject.Fail(MechFlushAfterLock, taxonomy.SymptomCrash,
			"FLUSH TABLES while holding LOCK TABLES frees the locked handler twice")
	}
	// Healthy behaviour: close and reopen every table descriptor.
	for _, t := range s.tables {
		if t.hasFD {
			_ = s.env.FDs().Close(t.fd)
			t.hasFD = false
		}
		if err := s.openTableFD(t); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) optimizeTable(name string) error {
	t, err := s.lookupTable(name)
	if err != nil {
		return err
	}
	if s.faults.Enabled(MechOptimizeCrash) {
		s.crash()
		return faultinject.Fail(MechOptimizeCrash, taxonomy.SymptomCrash,
			"table rebuild uses an uninitialized merge buffer")
	}
	// Compact row holes and rebuild indexes. Row ids shift, so the WAL batch
	// rewrites every surviving row at its new id and drops the keys beyond
	// the compacted length — one atomic batch, like the datafile rewrite.
	var rows []Row
	for _, row := range t.rows {
		if row != nil {
			rows = append(rows, row)
		}
	}
	var ops []durable.Op
	for id, row := range rows {
		ops = append(ops, rowOp(t.name, id, row))
	}
	for id := len(rows); id < len(t.rows); id++ {
		ops = append(ops, durable.Op{Kind: durable.OpDelete, Key: rowKey(t.name, id)})
	}
	if len(ops) > 0 {
		if err := s.logDurable("optimize", ops); err != nil {
			return err
		}
	}
	t.rows = rows
	t.live = len(rows)
	for col := range t.indexes {
		ci, cerr := t.colIndex(col)
		if cerr != nil {
			return cerr
		}
		t.indexes[col] = t.buildIndex(ci)
	}
	// Rewrite the datafile at its compacted size.
	if s.env.Disk().Exists(t.dataFile()) {
		if err := s.env.Disk().Truncate(t.dataFile()); err != nil {
			return err
		}
	}
	if t.live > 0 {
		if err := s.env.Disk().Append(t.dataFile(), Owner, int64(t.live)*rowBytes); err != nil {
			return fmt.Errorf("sqldb: optimize rewrite: %w", err)
		}
	}
	return nil
}
