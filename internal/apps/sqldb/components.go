package sqldb

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"faultstudy/internal/component"
)

// Component names of the componentized database server.
const (
	// CompExecutor is the query-execution engine — the root every other part
	// depends on, and where the executor-path defects live.
	CompExecutor = "sqldb/executor"
	// CompParser is the SQL parser; every statement routes through it.
	CompParser = "sqldb/parser"
	// CompListener is the accept path: the listening port and connection
	// admission (reverse DNS, privilege checks).
	CompListener = "sqldb/listener"
	// CompStorage is the table-file layer: datafile descriptors and disk
	// writes. Crash-stopping it releases every table descriptor.
	CompStorage = "sqldb/storage"
)

// Externalized-store buckets: sessions (session -> client address) and live
// connection ids (session -> conn id). Both survive any component reboot.
const (
	// SessionBucket maps a session name to its client address.
	SessionBucket = "sqldb/sessions"
	// ConnBucket maps a session name to its current server connection id.
	ConnBucket = "sqldb/conns"
)

// Reboot costs on the virtual clock, in simulated milliseconds.
const (
	executorStartCost   = 9 * time.Millisecond
	parserStartCost     = 2 * time.Millisecond
	dbListenerStartCost = 4 * time.Millisecond
	storageStartCost    = 6 * time.Millisecond
)

// dbComponentFor maps each seeded mechanism to the component its defect
// lives in.
var dbComponentFor = map[string]string{
	MechIndexUpdateScan: CompExecutor,
	MechOrderByEmpty:    CompExecutor,
	MechCountEmpty:      CompExecutor,
	MechOptimizeCrash:   CompExecutor,
	MechFlushAfterLock:  CompExecutor,
	MechNullDeref:       CompExecutor,
	MechStaleBuffer:     CompExecutor,
	MechBadInit:         CompExecutor,
	MechExecLoop:        CompExecutor,
	MechBounds:          CompExecutor,
	MechMissingCheck:    CompExecutor,
	MechSignalMaskRace:  CompExecutor,
	MechNoReverseDNS:    CompListener,
	MechLoginAdminRace:  CompListener,
	MechFDCompetition:   CompStorage,
	MechDBFileLimit:     CompStorage,
	MechFSFull:          CompStorage,
}

// Componentized is the crash-only decomposition of the database server:
// sessions and their connection ids live in an externalized store, so a
// listener reboot drops TCP connections but not sessions — clients re-attach
// transparently on their next statement.
type Componentized struct {
	*component.Process
	srv *Server
}

// Componentize wraps a server into its component tree, with sessions and
// their connection ids in the Process's store.
func Componentize(s *Server) *Componentized {
	c := &Componentized{srv: s, Process: component.NewProcess(s, dbComponentFor, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.running = true
	})}
	c.Tree().MustAdd(component.Spec{StartCost: executorStartCost, Component: component.NewPart(CompExecutor, component.Hooks{})})
	c.Tree().MustAdd(component.Spec{StartCost: parserStartCost, Deps: []string{CompExecutor}, Component: component.NewPart(CompParser, component.Hooks{})})
	c.Tree().MustAdd(component.Spec{StartCost: dbListenerStartCost, Deps: []string{CompExecutor}, Component: component.NewPart(CompListener, component.Hooks{
		// Crash-stopping the listener drops every TCP connection; sessions
		// survive in the store and re-attach on the next statement.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.connections = make(map[int]string)
			if s.portBound {
				_ = s.env.Net().ReleasePort(serverPort)
				s.portBound = false
			}
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if !s.portBound {
				if err := s.env.Net().BindPort(serverPort, Owner); err != nil {
					return err
				}
				s.portBound = true
			}
			return nil
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: storageStartCost, Deps: []string{CompExecutor}, Component: component.NewPart(CompStorage, component.Hooks{
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeTableFDsLocked()
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			names := make([]string, 0, len(s.tables))
			for name := range s.tables {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				t := s.tables[name]
				if !t.hasFD {
					if err := s.openTableFD(t); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})})
	return c
}

// Connect opens (or re-opens) a named session from the given client address.
// The session is externalized: it survives listener reboots and process
// restarts, re-attaching to a fresh connection id on demand.
func (c *Componentized) Connect(session, clientAddr string) error {
	if !c.Tree().Running(CompListener) {
		return component.Down(CompListener)
	}
	id, err := c.srv.Connect(clientAddr)
	if err != nil {
		return err
	}
	c.Store().Put(SessionBucket, session, clientAddr)
	c.Store().Put(ConnBucket, session, strconv.Itoa(id))
	return nil
}

// reattach ensures the session has a live server connection, transparently
// reconnecting with the externalized client address when the old connection
// died with a rebooted listener.
func (c *Componentized) reattach(session string) error {
	addr, ok := c.Store().Get(SessionBucket, session)
	if !ok {
		return fmt.Errorf("sqldb: unknown session %q", session)
	}
	// Connect and reattach are the only writers of ConnBucket, and they
	// write strconv.Itoa of a connection id.
	if v, ok := c.Store().Get(ConnBucket, session); ok {
		if id, err := strconv.Atoi(v); err == nil && c.srv.Connected(id) {
			return nil
		}
	}
	if !c.Tree().Running(CompListener) {
		return component.Down(CompListener)
	}
	id, err := c.srv.Connect(addr)
	if err != nil {
		return err
	}
	c.Store().Put(ConnBucket, session, strconv.Itoa(id))
	return nil
}

// Exec runs one ad-hoc statement on a session: it routes through the parser,
// executor, and storage, re-attaching the session's connection first if a
// listener reboot dropped it.
func (c *Componentized) Exec(session, sql string) (*ResultSet, error) {
	for _, name := range []string{CompParser, CompExecutor, CompStorage} {
		if !c.Tree().Running(name) {
			return nil, component.Down(name)
		}
	}
	if err := c.reattach(session); err != nil {
		return nil, err
	}
	return c.srv.Exec(sql)
}

// SessionAlive reports whether the session exists in the externalized store.
func (c *Componentized) SessionAlive(session string) bool {
	_, ok := c.Store().Get(SessionBucket, session)
	return ok
}
