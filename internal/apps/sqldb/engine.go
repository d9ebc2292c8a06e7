package sqldb

import (
	"errors"
	"fmt"
	"slices"
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
		return s.countRows(t, st)
	}
	f, err := t.where(st.Where)
	if err != nil {
		return nil, err
	}
	matched := t.matchRows(f)

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
			slices.SortStableFunc(matched, func(a, b int) int {
				cmp := t.rows[a][ci].Compare(t.rows[b][ci])
				if st.OrderDesc {
					return -cmp
				}
				return cmp
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
	if len(matched) == 0 {
		return rs, nil
	}
	// One backing array holds every returned value; each row is a
	// full-capacity window onto it, so appending to one row cannot write
	// into the next.
	w := len(cols)
	vals := make([]Value, len(matched)*w)
	rs.Rows = make([]Row, len(matched))
	for i, rowID := range matched {
		src, out := t.rows[rowID], vals[i*w:(i+1)*w:(i+1)*w]
		if proj == nil {
			copy(out, src)
		}
		for j, ci := range proj {
			out[j] = src[ci]
		}
		rs.Rows[i] = out
	}
	return rs, nil
}

// countRows answers SELECT COUNT(...). Without a WHERE every live row
// counts, so the answer is the table's live count; with one, the rows the
// filter matches are counted. Columns hold no NULLs, so COUNT(col) and
// COUNT(*) agree.
func (s *Server) countRows(t *table, st *Statement) (*ResultSet, error) {
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
	f, err := t.where(st.Where)
	if err != nil {
		return nil, err
	}
	count := int64(t.live)
	if f.cond != nil {
		count = 0
		for _, row := range t.rows {
			if row != nil && f.matches(row) {
				count++
			}
		}
	}
	return &ResultSet{IsCount: true, Count: count}, nil
}

// projection resolves a SELECT list against t: the returned column names
// and their positions in a row. SELECT * returns every column in order and
// nil positions.
func projection(t *table, sel []string) (names []string, colIdx []int, err error) {
	if len(sel) == 1 && sel[0] == "*" {
		names = make([]string, len(t.cols))
		for i, c := range t.cols {
			names[i] = c.Name
		}
		return names, nil, nil
	}
	names, colIdx = make([]string, 0, len(sel)), make([]int, 0, len(sel))
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

// filter is a WHERE condition resolved against one table: the column's
// position and the operator's truth table are looked up once per
// statement, not once per row. The zero filter (no WHERE) matches every
// row.
type filter struct {
	cond *Cond
	ci   int
	// holds[c+1] reports whether a row value that compares c (-1, 0 or 1)
	// with the condition's value satisfies the operator.
	holds [3]bool
}

// where resolves a statement's WHERE condition (nil when it has none)
// against t's columns; a column t lacks is an error.
func (t *table) where(cond *Cond) (filter, error) {
	if cond == nil {
		return filter{}, nil
	}
	ci, err := t.colIndex(cond.Col)
	if err != nil {
		return filter{}, err
	}
	f := filter{cond: cond, ci: ci}
	switch cond.Op {
	case "=":
		f.holds = [3]bool{false, true, false}
	case "<":
		f.holds = [3]bool{true, false, false}
	case ">":
		f.holds = [3]bool{false, false, true}
	case "<=":
		f.holds = [3]bool{true, true, false}
	case ">=":
		f.holds = [3]bool{false, true, true}
	case "!=", "<>":
		f.holds = [3]bool{true, false, true}
	}
	return f, nil
}

// matches reports whether the live row satisfies the filter.
func (f *filter) matches(row Row) bool {
	return f.cond == nil || f.holds[row[f.ci].Compare(f.cond.Val)+1]
}

// scan returns the ids of the live rows the filter matches, in row-id
// order.
func (t *table) scan(f filter) []int {
	var ids []int
	for rowID, row := range t.rows {
		if row != nil && f.matches(row) {
			ids = append(ids, rowID)
		}
	}
	return ids
}

// matchRows returns the live row ids the filter matches, in row-id order.
// Equality on an indexed column uses the B-tree; everything else scans.
func (t *table) matchRows(f filter) []int {
	if f.cond != nil && f.cond.Op == "=" {
		if idx, ok := t.indexes[f.cond.Col]; ok {
			rows := idx.Lookup(f.cond.Val)
			sort.Ints(rows)
			live := rows[:0]
			for _, rowID := range rows {
				if t.rows[rowID] != nil {
					live = append(live, rowID)
				}
			}
			return live
		}
	}
	return t.scan(f)
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
	f, err := t.where(st.Where)
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

	// One scan finds the matching rows and plans their final images with
	// the fixed algorithm; the plan is WAL-logged before memory is touched.
	// The log carries the statement as one atomic batch, so replay never
	// sees a half-applied UPDATE even when the in-place scan below dies
	// halfway through.
	var (
		targets []int
		vals    []Value
		planOps []durable.Op
		image   Row // reused: rowOp encodes the image before the next overwrites it
	)
	for rowID, row := range t.rows {
		if row == nil || !f.matches(row) {
			continue
		}
		nv, nerr := newVal(row[ci])
		if nerr != nil {
			return nerr
		}
		image = append(image[:0], row...)
		image[ci] = nv
		planOps = append(planOps, rowOp(t.name, rowID, image))
		targets = append(targets, rowID)
		vals = append(vals, nv)
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
			if row == nil || !f.matches(row) {
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

	// The fixed algorithm (the paper's fix): the scan above found every
	// matching row first; now update the found rows.
	for i, rowID := range targets {
		row := t.rows[rowID]
		if idx != nil {
			idx.Delete(row[ci], rowID)
			idx.Insert(vals[i], rowID)
		}
		row[ci] = vals[i]
	}
	return nil
}

func (s *Server) deleteRows(st *Statement) error {
	t, err := s.lookupTable(st.Table)
	if err != nil {
		return err
	}
	f, err := t.where(st.Where)
	if err != nil {
		return err
	}
	victims := t.scan(f)
	if len(victims) == 0 {
		return nil
	}
	// WAL the victims' tombstones as one atomic batch before deleting.
	ops := make([]durable.Op, len(victims))
	for i, rowID := range victims {
		ops[i] = rowOp(t.name, rowID, nil)
	}
	if err := s.logDurable("delete", ops); err != nil {
		return err
	}
	for col, idx := range t.indexes {
		ci, err := t.colIndex(col)
		if err != nil {
			return err
		}
		for _, rowID := range victims {
			idx.Delete(t.rows[rowID][ci], rowID)
		}
	}
	for _, rowID := range victims {
		t.rows[rowID] = nil
	}
	t.live -= len(victims)
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
