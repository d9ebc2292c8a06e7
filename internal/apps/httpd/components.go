package httpd

import (
	"strings"
	"time"

	"faultstudy/internal/component"
)

// Component names of the componentized server.
const (
	// CompCore is the request-processing engine: URL parsing, response
	// assembly, and the per-request heap. Every request routes through it,
	// and every environment-independent defect lives in it.
	CompCore = "httpd/core"
	// CompListener is the accept path: the listening port and the
	// per-connection network preamble (interface, DNS, entropy).
	CompListener = "httpd/listener"
	// CompLogger is the access-log writer and its vhost descriptors. When it
	// is down the server serves unlogged rather than failing.
	CompLogger = "httpd/logger"
	// CompCache is the proxy-cache writer; /proxy/ requests route through it.
	CompCache = "httpd/cache"
	// CompCGI is the child-process manager; /cgi-bin/ requests route through
	// it, and crash-stopping it reaps every hung child.
	CompCGI = "httpd/cgi"
)

// SessionBucket is the externalized-store bucket holding per-session request
// counters — the state that must survive any component reboot.
const SessionBucket = "httpd/sessions"

// Reboot costs on the virtual clock: what one microreboot of each part costs,
// in simulated milliseconds — against whole-process restart measured in
// seconds.
const (
	coreStartCost     = 8 * time.Millisecond
	listenerStartCost = 4 * time.Millisecond
	loggerStartCost   = 2 * time.Millisecond
	cacheStartCost    = 3 * time.Millisecond
	cgiStartCost      = 3 * time.Millisecond
)

// componentFor maps each seeded mechanism to the component its defect (or
// the resource it exhausts) lives in.
var componentFor = map[string]string{
	MechLongURLOverflow:  CompCore,
	MechSighupCrash:      CompCore,
	MechValistReuse:      CompCore,
	MechPallocZero:       CompCore,
	MechMemoryLeakHup:    CompCore,
	MechNullDeref:        CompCore,
	MechBounds:           CompCore,
	MechBadInit:          CompCore,
	MechParseLoop:        CompCore,
	MechTypeMismatch:     CompCore,
	MechMissingCheck:     CompCore,
	MechDoubleFree:       CompCore,
	MechWrongStatus:      CompCore,
	MechLoadResourceLeak: CompCore,
	MechFDExhaustion:     CompCore,
	MechLogFileLimit:     CompLogger,
	MechFSFull:           CompLogger,
	MechDiskCacheFull:    CompCache,
	MechProcTableFull:    CompCGI,
	MechClientAbort:      CompCGI,
	MechPortSquat:        CompCGI,
	MechNetResource:      CompListener,
	MechPCMCIARemoval:    CompListener,
	MechDNSError:         CompListener,
	MechDNSSlow:          CompListener,
	MechSlowNetwork:      CompListener,
	MechEntropyStarved:   CompListener,
}

// Componentized is the crash-only decomposition of the web server: the same
// simulated Apache, restructured into a component tree with sessions
// externalized to a store that survives component death. Its embedded
// Process implements both recovery.Application (the whole-process
// lifecycle) and component.Host (the per-component one).
type Componentized struct {
	*component.Process
	srv *Server
}

// Componentize wraps a server into its component tree, with the
// externalized session state in the Process's store.
func Componentize(s *Server) *Componentized {
	c := &Componentized{srv: s, Process: component.NewProcess(s, componentFor, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.running = true
	})}
	c.Tree().MustAdd(component.Spec{StartCost: coreStartCost, Component: component.NewPart(CompCore, component.Hooks{
		// Crash-stopping the core discards its heap and every descriptor it
		// leaked — the microreboot answer to the leak-class mechanisms.
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeLeakFDsLocked()
			s.memBytes = 0
			s.leakUnits = 0
			s.leakFDWant = 0
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: listenerStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompListener, component.Hooks{
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
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
	c.Tree().MustAdd(component.Spec{StartCost: loggerStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompLogger, component.Hooks{
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.closeLogFDsLocked()
			s.logSuspended = true
		},
		OnStart: func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.openLogFDs(); err != nil {
				return err
			}
			s.logSuspended = false
			return nil
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: cacheStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompCache, component.Hooks{})})
	c.Tree().MustAdd(component.Spec{StartCost: cgiStartCost, Deps: []string{CompCore}, Component: component.NewPart(CompCGI, component.Hooks{
		// Crash-stopping the CGI manager reaps every child, hung ones
		// included — freeing the process table (and any squatted port hold).
		OnKill: func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, pid := range s.children {
				_ = s.env.Procs().Kill(pid)
			}
			s.children = nil
		},
	})})
	return c
}

// routeOf lists the components a request routes through. The logger is
// deliberately absent: a down logger degrades to unlogged serving instead of
// failing the request.
func routeOf(req Request) []string {
	route := []string{CompListener, CompCore}
	if strings.HasPrefix(req.Path, "/proxy/") {
		route = append(route, CompCache)
	}
	if strings.HasPrefix(req.Path, "/cgi-bin/") {
		route = append(route, CompCGI)
	}
	return route
}

// Serve handles one request through the component tree: requests routed
// through a down component fail fast with a DownError (these are the
// requests a microreboot window loses), everything else serves normally —
// including while a sibling component is mid-reboot. A request carrying a
// session advances its externalized session counter on success.
func (c *Componentized) Serve(req Request) (Response, error) {
	for _, name := range routeOf(req) {
		if !c.Tree().Running(name) {
			return Response{}, component.Down(name)
		}
	}
	resp, err := c.srv.Serve(req)
	if err == nil && req.Session != "" {
		c.Store().Incr(SessionBucket, req.Session)
	}
	return resp, err
}

// SessionDepth returns a session's externalized request counter (0 when the
// session has never been seen).
func (c *Componentized) SessionDepth(session string) int64 {
	v, ok := c.Store().Get(SessionBucket, session)
	if !ok {
		return 0
	}
	var n int64
	for _, ch := range v {
		n = n*10 + int64(ch-'0')
	}
	return n
}
