package sqldb

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"faultstudy/internal/durable"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

// storeDir roots the engine's durable store; the write-ahead log and
// checkpoint live beside the table datafiles on the same partition, so the
// same disk faults hit both.
const storeDir = "/var/db"

// Durable-store key layout. Schemas live under "s/<table>" (column
// definitions plus the sorted index list); rows live under
// "r/<table>/<%08d row id>" so a sorted key walk yields rows in id order.
// A deleted row keeps its key with the JSON value "null" — the tombstone
// preserves the id holes the ISAM-style format leaves until OPTIMIZE.
func schemaKey(table string) string { return "s/" + table }

func rowKey(table string, id int) string {
	var buf [64]byte
	b := append(append(append(buf[:0], "r/"...), table...), '/')
	return string(appendPadded(b, id, 8))
}

// schemaRec is the stored form of a table definition.
type schemaRec struct {
	// Cols holds the column definitions in declaration order.
	Cols []ColDef `json:"cols"`
	// Indexes lists the indexed columns, sorted.
	Indexes []string `json:"indexes"`
}

// schemaOp encodes the put recording t's definition with the given index
// list.
func schemaOp(t *table, indexes []string) durable.Op {
	sorted := append([]string(nil), indexes...)
	sort.Strings(sorted)
	raw, err := json.Marshal(schemaRec{Cols: t.cols, Indexes: sorted})
	if err != nil {
		// ColDef and string marshal unconditionally; reaching this is a bug.
		panic("sqldb: schema encode: " + err.Error())
	}
	return durable.Op{Kind: durable.OpPut, Key: schemaKey(t.name), Value: raw}
}

// indexList returns t's indexed columns, sorted.
func indexList(t *table) []string {
	cols := make([]string, 0, len(t.indexes))
	for col := range t.indexes {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	return cols
}

// rowOp encodes the put recording one row (nil row = tombstone).
func rowOp(table string, id int, row Row) durable.Op {
	raw, err := json.Marshal(row)
	if err != nil {
		panic("sqldb: row encode: " + err.Error())
	}
	return durable.Op{Kind: durable.OpPut, Key: rowKey(table, id), Value: raw}
}

// logDurable appends one atomic batch to the engine's write-ahead log,
// synced before acknowledgement. Environment failures map to the same
// mechanisms as datafile writes: the log lives on the same partition, so a
// full file system or the file-size limit hits it the same way.
func (s *Server) logDurable(what string, ops []durable.Op) error {
	if s.store == nil {
		return nil
	}
	err := s.store.Apply(ops)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, simenv.ErrFileTooLarge) && s.faults.Enabled(MechDBFileLimit):
		return faultinject.FailCause(MechDBFileLimit, taxonomy.SymptomError,
			"write-ahead log exceeds the maximum allowed file size", err)
	case errors.Is(err, simenv.ErrDiskFull) && s.faults.Enabled(MechFSFull):
		return faultinject.FailCause(MechFSFull, taxonomy.SymptomError,
			"full file system prevents all operations", err)
	default:
		return fmt.Errorf("sqldb: %s: %w", what, err)
	}
}

// stateOps flattens the server's in-memory tables into one batch that,
// applied after a Clear, makes the durable store agree with memory — the
// resync run when a restore could not be served by log replay.
func (s *Server) stateOps() []durable.Op {
	ops := []durable.Op{{Kind: durable.OpClear}}
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tables[name]
		ops = append(ops, schemaOp(t, indexList(t)))
		for id, row := range t.rows {
			ops = append(ops, rowOp(name, id, row))
		}
	}
	return ops
}

// tablesFromStore rebuilds the full table map from the durable store's
// key-value state — the restore path that replays recovered bytes instead of
// trusting an in-memory copy.
func tablesFromStore(st *durable.Store) (map[string]*table, error) {
	keys := st.Keys()
	sort.Strings(keys)
	tables := make(map[string]*table)
	schemas := make(map[string]schemaRec)
	// Schemas first: row keys sort before schema keys ("r/" < "s/"), but a
	// row can only be decoded into a table that already exists.
	for _, key := range keys {
		if !strings.HasPrefix(key, "s/") {
			continue
		}
		name := key[len("s/"):]
		raw, _ := st.Get(key)
		var rec schemaRec
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("sqldb: stored schema %q: %w", name, err)
		}
		schemas[name] = rec
		tables[name] = &table{
			name:    name,
			cols:    append([]ColDef(nil), rec.Cols...),
			indexes: make(map[string]*btree),
		}
	}
	for _, key := range keys {
		switch {
		case strings.HasPrefix(key, "s/"):
			// Handled in the first pass.
		case strings.HasPrefix(key, "r/"):
			rest := key[len("r/"):]
			slash := strings.LastIndexByte(rest, '/')
			if slash < 0 {
				return nil, fmt.Errorf("sqldb: malformed row key %q", key)
			}
			name := rest[:slash]
			t, ok := tables[name]
			if !ok {
				return nil, fmt.Errorf("sqldb: row key %q has no schema", key)
			}
			var id int
			if _, err := fmt.Sscanf(rest[slash+1:], "%d", &id); err != nil {
				return nil, fmt.Errorf("sqldb: malformed row key %q: %w", key, err)
			}
			if id != len(t.rows) {
				return nil, fmt.Errorf("sqldb: row ids for %q not contiguous at %d", name, id)
			}
			raw, _ := st.Get(key)
			var row Row
			if err := json.Unmarshal(raw, &row); err != nil {
				return nil, fmt.Errorf("sqldb: stored row %q: %w", key, err)
			}
			if row != nil {
				t.live++
			}
			t.rows = append(t.rows, row)
		default:
			return nil, fmt.Errorf("sqldb: unexpected stored key %q", key)
		}
	}
	for name, rec := range schemas {
		t := tables[name]
		for _, col := range rec.Indexes {
			ci, err := t.colIndex(col)
			if err != nil {
				return nil, err
			}
			t.indexes[col] = t.buildIndex(ci)
		}
	}
	return tables, nil
}
