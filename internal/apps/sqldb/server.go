package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"faultstudy/internal/durable"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/snapwire"
	"faultstudy/internal/taxonomy"
)

// Owner is the environment owner tag for all database resources.
const Owner = "mysqld"

// serverPort is the listening port.
const serverPort = 3306

// Server is the simulated database server.
type Server struct {
	env    *simenv.Env
	faults *faultinject.Set

	mu       sync.Mutex
	running  bool
	degraded bool
	// portBound tracks listening-port ownership so the componentized
	// listener part (components.go) can release and rebind it.
	portBound   bool
	tables      map[string]*table
	lockedTable string
	connections map[int]string // conn id -> client address
	nextConn    int
	queries     int64
	// pendingGrants counts GRANTs awaiting FLUSH PRIVILEGES — the shared
	// structure the login/admin race corrupts.
	pendingGrants int
	// store is the engine's durable backend: every committed statement is
	// WAL-logged through it before acknowledgement, and the restore rung
	// replays its recovered bytes instead of trusting an in-memory copy.
	store *durable.Store
	// walReplays counts restores served by checkpoint-load + log-replay;
	// logicalFallbacks counts restores that had to rebuild from the
	// snapshot's table section because the log no longer reached the
	// snapshot's sequence.
	walReplays       int64
	logicalFallbacks int64
}

// New builds a server over the environment with the given active bug set.
func New(env *simenv.Env, faults *faultinject.Set) *Server {
	return &Server{
		env:         env,
		faults:      faults,
		tables:      make(map[string]*table),
		connections: make(map[int]string),
		nextConn:    1,
	}
}

// Name returns the environment owner tag.
func (s *Server) Name() string { return Owner }

// Env returns the server's environment.
func (s *Server) Env() *simenv.Env { return s.env }

// ErrReadOnly rejects writes while the server is degraded.
var ErrReadOnly = errors.New("sqldb: server is read-only (degraded mode)")

// SetDegraded toggles degraded mode: the server answers SELECTs but rejects
// every mutating statement with ErrReadOnly, so a database whose environment
// can no longer absorb writes still serves reads.
func (s *Server) SetDegraded(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = on
}

// Running reports whether the server is up.
func (s *Server) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// crash marks the server dead; callers return the FailureError describing
// why. Must be called with s.mu held.
func (s *Server) crash() { s.running = false }

// Start binds the listening port, reopens every table's datafile
// descriptor, and reopens the durable store — a real recovery pass
// (checkpoint-load + log-replay + tail repair) on every boot, because the
// recovery code IS the startup path.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("sqldb: already running")
	}
	if err := s.env.Net().BindPort(serverPort, Owner); err != nil {
		return fmt.Errorf("sqldb: start: %w", err)
	}
	s.portBound = true
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tables[name]
		if !t.hasFD {
			if err := s.openTableFD(t); err != nil {
				_ = s.env.Net().ReleasePort(serverPort)
				s.closeTableFDsLocked()
				return err
			}
		}
	}
	if _, err := s.reopenStoreLocked(); err != nil {
		_ = s.env.Net().ReleasePort(serverPort)
		s.portBound = false
		s.closeTableFDsLocked()
		return err
	}
	s.running = true
	return nil
}

// reopenStoreLocked closes any previous store incarnation and runs durable
// recovery over whatever it left on disk. The store charges no descriptor of
// its own: table datafiles model the engine's descriptor footprint.
func (s *Server) reopenStoreLocked() (*durable.RecoveryInfo, error) {
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
	st, info, err := durable.Open(s.env, Owner, storeDir, durable.Options{NoFD: true})
	if err != nil {
		return nil, fmt.Errorf("sqldb: open durable store: %w", err)
	}
	s.store = st
	return info, nil
}

func (s *Server) closeTableFDsLocked() {
	for _, t := range s.tables {
		if t.hasFD {
			_ = s.env.FDs().Close(t.fd)
			t.hasFD = false
		}
	}
}

// Stop shuts the server down and releases its environment resources.
// Closing the durable store is crash-equivalent: every acknowledged record
// is already synced, so stop == kill.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.running = false
	_ = s.env.Net().ReleasePort(serverPort)
	s.portBound = false
	s.closeTableFDsLocked()
	if s.store != nil {
		s.store.Close()
	}
	s.connections = make(map[int]string)
	s.lockedTable = ""
}

// Connect opens a client session from the given address. With the
// reverse-DNS bug active, a client whose address has no PTR record kills the
// server; with the login/admin race active, a login that interleaves with a
// privilege reload the wrong way does the same.
func (s *Server) Connect(clientAddr string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return 0, errors.New("sqldb: not running")
	}
	if s.faults.Enabled(MechNoReverseDNS) {
		if _, err := s.env.DNS().Reverse(clientAddr); err != nil {
			if errors.Is(err, simenv.ErrNoReverseDNS) {
				s.crash()
				return 0, faultinject.FailCause(MechNoReverseDNS, taxonomy.SymptomCrash,
					"host-cache insert with a NULL hostname", err)
			}
			return 0, fmt.Errorf("sqldb: connect: %w", err)
		}
	}
	if s.faults.Enabled(MechLoginAdminRace) && s.pendingGrants > 0 {
		if s.env.Sched().RaceFires(MechLoginAdminRace, 3) {
			s.crash()
			return 0, faultinject.Fail(MechLoginAdminRace, taxonomy.SymptomCrash,
				"login read the privilege table mid-reload")
		}
	}
	id := s.nextConn
	s.nextConn++
	s.connections[id] = clientAddr
	return id, nil
}

// Connected reports whether a connection id is still open — the probe the
// componentized layer uses to re-attach externalized sessions after a
// listener reboot dropped their connections.
func (s *Server) Connected(conn int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.connections[conn]
	return ok
}

// Exec parses and executes one SQL statement. Failures from seeded bugs are
// *faultinject.FailureError values; other errors are ordinary statement
// errors (bad SQL, unknown tables) that leave the server healthy.
func (s *Server) Exec(sql string) (*ResultSet, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return nil, errors.New("sqldb: not running")
	}
	if s.degraded && st.Kind != StmtSelect {
		return nil, ErrReadOnly
	}
	s.queries++
	// The signal-mask race: under connection churn a signal can arrive in
	// the window where the worker unmasked it; the wrong interleaving kills
	// the server regardless of the statement being executed.
	if s.faults.Enabled(MechSignalMaskRace) {
		if s.env.Sched().RaceFires(MechSignalMaskRace, 3) {
			s.crash()
			return nil, faultinject.Fail(MechSignalMaskRace, taxonomy.SymptomCrash,
				"signal arrived inside the unmask window")
		}
	}
	// Template-class environment-independent bugs live on the defect paths
	// exercised by queries against their trigger tables.
	if key := genericBugKey(st.Table); key != "" && s.faults.Enabled(key) && st.Kind != StmtCreateTable {
		switch key {
		case MechExecLoop:
			s.crash()
			return nil, faultinject.Fail(key, taxonomy.SymptomHang,
				"executor re-enqueues the same work item forever")
		case MechStaleBuffer:
			return nil, faultinject.Fail(key, taxonomy.SymptomError,
				"rows from the previous query leaked into the result")
		default:
			s.crash()
			return nil, faultinject.Fail(key, taxonomy.SymptomCrash,
				"deterministic crash on the defect path")
		}
	}
	return s.execStmt(st)
}

// flushPrivileges applies pending grants; part of the login/admin race
// staging.
func (s *Server) flushPrivileges() error {
	s.pendingGrants = 0
	return nil
}

// dbState is the server's logical state as a snapshot carries it.
type dbState struct {
	Tables        []tableState
	LockedTable   string
	Queries       int64
	PendingGrants int
	// DurableSeq is the durable store's last acknowledged sequence number at
	// snapshot time — the rollback target a restore rewinds the log to.
	DurableSeq uint64
}

// tableState is one table as a snapshot carries it.
type tableState struct {
	Name    string
	Cols    []ColDef
	Rows    []Row // index = row id; nil = deleted
	Indexes []string
}

// Snapshot captures the server's complete logical state: schemas, rows,
// index definitions, locks, and the pending-grant count. Connections are
// sessions, not state — a failover drops them.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := snapwire.NewEncoder(snapwire.TagSQLDB)
	e.Str(s.lockedTable)
	e.Int(s.queries)
	e.Int(int64(s.pendingGrants))
	var seq uint64
	if s.store != nil {
		seq = s.store.Seq()
	}
	e.Uint(seq)
	e.Len(len(s.tables))
	for _, t := range s.tables {
		e.Str(t.name)
		e.Len(len(t.cols))
		for _, c := range t.cols {
			e.Str(c.Name)
			e.Int(int64(c.Type))
		}
		e.Len(len(t.indexes))
		for col := range t.indexes {
			e.Str(col)
		}
		e.Len(len(t.rows))
		for _, row := range t.rows {
			e.Bool(row != nil)
			if row == nil {
				continue
			}
			e.Len(len(row))
			for _, v := range row {
				e.Bool(v.IsInt)
				if v.IsInt {
					e.Int(v.I)
				} else {
					e.Str(v.S)
				}
			}
		}
	}
	return e.Bytes(), nil
}

// decodeState reads a snapshot written by Snapshot, tables included, and
// checks that every live row has its table's width and every index names a
// column — so a malformed snapshot is rejected before Restore touches the
// server, even when WAL replay will then serve the tables.
func decodeState(snapshot []byte) (dbState, error) {
	d := snapwire.NewDecoder(snapwire.TagSQLDB, snapshot)
	st := dbState{
		LockedTable:   d.Str(),
		Queries:       d.Int(),
		PendingGrants: int(d.Int()),
		DurableSeq:    d.Uint(),
	}
	// A table is at least its name, column, index and row counts.
	st.Tables = make([]tableState, d.Len(16))
	for i := range st.Tables {
		ts := &st.Tables[i]
		ts.Name = d.Str()
		ts.Cols = make([]ColDef, d.Len(12))
		for c := range ts.Cols {
			ts.Cols[c] = ColDef{Name: d.Str(), Type: ColType(d.Int())}
		}
		ts.Indexes = d.Strs()
		for _, col := range ts.Indexes {
			if !slices.ContainsFunc(ts.Cols, func(c ColDef) bool { return c.Name == col }) {
				d.Fail(fmt.Sprintf("table %q indexes unknown column %q", ts.Name, col))
			}
		}
		ts.Rows = make([]Row, d.Len(1))
		for id := range ts.Rows {
			if !d.Bool() {
				continue
			}
			// A value is at least its type byte and an empty string.
			if n := d.Len(5); n != len(ts.Cols) {
				d.Fail(fmt.Sprintf("table %q row %d has %d values, want %d", ts.Name, id, n, len(ts.Cols)))
				continue
			}
			row := make(Row, len(ts.Cols))
			for c := range row {
				if row[c].IsInt = d.Bool(); row[c].IsInt {
					row[c].I = d.Int()
				} else {
					row[c].S = d.Str()
				}
			}
			ts.Rows[id] = row
		}
	}
	return st, d.Finish()
}

// build makes the in-memory table a snapshot's table section describes,
// indexes rebuilt from its rows.
func (ts tableState) build() *table {
	t := &table{name: ts.Name, cols: ts.Cols, rows: ts.Rows, indexes: make(map[string]*btree, len(ts.Indexes))}
	for _, row := range t.rows {
		if row != nil {
			t.live++
		}
	}
	for _, col := range ts.Indexes {
		ci, _ := t.colIndex(col) // decodeState checked every index names a column
		t.indexes[col] = t.buildIndex(ci)
	}
	return t
}

// Restore replaces the server's logical state from a snapshot and restarts
// it, re-acquiring the port, every table descriptor, and the disk footprint
// the state mandates. The data plane is rebuilt by recovering the durable
// store from disk and rewinding its log to the snapshot's sequence number —
// checkpoint-load plus replay of real bytes — with the snapshot's table
// section as the fallback when the log no longer reaches that point (and as
// the only source for session scalars, which are state, not data). The
// whole snapshot is decoded before anything changes, so a malformed one is
// rejected with the server untouched. The server must be stopped.
func (s *Server) Restore(snapshot []byte) error {
	st, err := decodeState(snapshot)
	if err != nil {
		return fmt.Errorf("sqldb: restore: %w", err)
	}
	return s.restoreState(st)
}

// restoreState installs a decoded state and restarts the server.
func (s *Server) restoreState(st dbState) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return errors.New("sqldb: restore while running")
	}
	// Release descriptors held by the dead instance before rebuilding.
	s.closeTableFDsLocked()
	replayed := false
	if _, err := s.reopenStoreLocked(); err == nil &&
		st.DurableSeq > 0 && s.store.CanRollbackTo(st.DurableSeq) {
		if err := s.store.RollbackTo(st.DurableSeq); err == nil {
			if tables, terr := tablesFromStore(s.store); terr == nil {
				s.tables = tables
				s.walReplays++
				replayed = true
			}
		}
	}
	if !replayed {
		s.logicalFallbacks++
		s.tables = make(map[string]*table, len(st.Tables))
		for _, ts := range st.Tables {
			s.tables[ts.Name] = ts.build()
		}
		// Resync the store so the next restore can replay again. A failed
		// resync leaves the store wounded; the next append repairs it.
		if s.store != nil {
			_ = s.store.Apply(s.stateOps())
		}
	}
	// Restore each datafile's footprint if the failover lost it.
	for _, t := range s.tables {
		want := int64(len(t.rows)) * rowBytes
		have := int64(0)
		if s.env.Disk().Exists(t.dataFile()) {
			sz, err := s.env.Disk().Size(t.dataFile())
			if err == nil {
				have = sz
			}
		}
		if want > have {
			if err := s.env.Disk().Append(t.dataFile(), Owner, want-have); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("sqldb: restore datafile %q: %w", t.name, err)
			}
		}
	}
	s.lockedTable = st.LockedTable
	s.queries = st.Queries
	s.pendingGrants = st.PendingGrants
	s.connections = make(map[int]string)
	s.mu.Unlock()
	return s.Start()
}

// Reset reinitializes the server to an empty database — application-specific
// recovery that discards all state. The server must be stopped.
func (s *Server) Reset() error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return errors.New("sqldb: reset while running")
	}
	s.closeTableFDsLocked()
	for _, t := range s.tables {
		if s.env.Disk().Exists(t.dataFile()) {
			_ = s.env.Disk().Remove(t.dataFile())
		}
	}
	if s.store != nil {
		_ = s.store.Destroy()
		s.store = nil
	}
	s.tables = make(map[string]*table)
	s.lockedTable = ""
	s.queries = 0
	s.pendingGrants = 0
	s.connections = make(map[int]string)
	s.mu.Unlock()
	return s.Start()
}

// WALReplays counts restores served by checkpoint-load + log-replay.
func (s *Server) WALReplays() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walReplays
}

// LogicalFallbacks counts restores that rebuilt the tables from the
// snapshot's table section because the log no longer reached the snapshot's
// sequence number.
func (s *Server) LogicalFallbacks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logicalFallbacks
}
