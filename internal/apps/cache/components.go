package cache

import (
	"time"

	"faultstudy/internal/component"
)

// Component names of the componentized daemon.
const (
	// CompCore is the keyed index and LRU order. Every operation routes
	// through it, and every environment-independent defect lives in it.
	CompCore = "cache/core"
	// CompListener is the accept path: the listening port, the per-connection
	// descriptors, and the replication-peer network preamble.
	CompListener = "cache/listener"
	// CompPersist is the append-only-log writer. When it is down the daemon
	// serves unpersisted rather than failing.
	CompPersist = "cache/persist"
	// CompSweeper is the background expiry sweep; the expiry race lives in
	// it, and crash-stopping it closes the race window.
	CompSweeper = "cache/sweeper"
)

// Reboot costs on the virtual clock: what one microreboot of each part
// costs, in simulated milliseconds — against whole-process restart measured
// in seconds.
const (
	coreStartCost     = 6 * time.Millisecond
	listenerStartCost = 3 * time.Millisecond
	persistStartCost  = 2 * time.Millisecond
	sweeperStartCost  = 1 * time.Millisecond
)

// componentFor maps each seeded mechanism to the component its defect (or
// the resource it exhausts) lives in.
var componentFor = map[string]string{
	MechEmptyKeyDeref:   CompCore,
	MechEvictOffByOne:   CompCore,
	MechTTLParseLoop:    CompCore,
	MechStatsDivZero:    CompCore,
	MechBigValueBounds:  CompCore,
	MechFlushDoubleFree: CompCore,
	MechWrongHitCount:   CompCore,
	MechShadowCopyLeak:  CompCore,
	MechConnFDLeak:      CompListener,
	MechPeerDNSFlap:     CompListener,
	MechSlowReplFlush:   CompListener,
	MechAOFDiskFull:     CompPersist,
	MechExpiryRace:      CompSweeper,
}

// Componentized is the crash-only decomposition of the cache daemon: the
// same simulated daemon, restructured into a component tree. Its embedded
// Process implements both recovery.Application (the whole-process
// lifecycle) and component.Host (the per-component one).
type Componentized struct {
	*component.Process
	srv *Server
}

// Componentize wraps a daemon into its component tree.
func Componentize(s *Server) *Componentized {
	c := &Componentized{srv: s, Process: component.NewProcess(s, componentFor, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.running = true
	})}
	c.Tree().MustAdd(component.Spec{StartCost: coreStartCost, Component: component.NewPart(CompCore, component.Hooks{
		// Crash-stopping the core discards the leaked shadow copies — the
		// microreboot answer to the leak-class mechanisms.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.shadowBytes = 0
			s.lastFlush = false
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: listenerStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompListener, component.Hooks{
		// Crash-stopping the listener drops every (leaked) connection
		// descriptor and the port; restarting rebinds and starts clean.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeConnFDsLocked()
			s.connFDWant = 0
			if s.portBound {
				_ = s.env.Net().ReleasePort(port)
				s.portBound = false
			}
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if !s.portBound {
				if err := s.env.Net().BindPort(port, Owner); err != nil {
					return err
				}
				s.portBound = true
			}
			return nil
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: persistStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompPersist, component.Hooks{
		// Crash-stopping the persist part really kills the log writer: the
		// store closes without any flush (acknowledged records are already
		// synced), and restarting it reruns durable recovery over the bytes
		// the kill left behind — crash-only for real.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.store != nil {
				s.store.Close()
			}
			s.aofSuspended = true
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.reopenStoreLocked(); err != nil {
				return err
			}
			s.aofSuspended = false
			return nil
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: sweeperStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompSweeper, component.Hooks{})})
	return c
}
