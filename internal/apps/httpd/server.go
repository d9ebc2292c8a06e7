// Package httpd is a simulated web server in the mold of Apache 1.3, built
// on the simulated operating environment and seeded with the bugs the study
// catalogued for Apache (§5.1): the long-URL hash overflow, the SIGHUP crash,
// the va_list reuse, the zero-entry-directory palloc, the memory leak, and
// the full set of environment-dependent conditions (descriptor exhaustion,
// full disk/cache, oversized logs, network loss, DNS trouble, hung children,
// client aborts, entropy starvation).
//
// The server is a value-level simulation: requests are values, children are
// process-table entries, files are disk records. Everything the server holds
// from the environment is tagged with Owner so recovery systems can reclaim
// it, and everything the server *is* — its logical state — round-trips
// through Snapshot/Restore, which is what makes "truly generic recovery
// preserves all application state" a mechanically testable proposition.
package httpd

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/snapwire"
	"faultstudy/internal/taxonomy"
)

// Owner is the environment owner tag for all server resources.
const Owner = "httpd"

// Default resource limits of the simulated server.
const (
	port          = 80
	vhostLogs     = 4 // per-vhost log descriptors held open as configuration state
	accessLog     = "/var/log/httpd/access_log"
	cacheFile     = "/var/cache/httpd/proxy.data"
	memLimitBytes = 100 << 20 // the paper's ">100 Mbytes in <5 hours" leak bound
	leakUnitCap   = 64        // abstract resource units before the unknown leak kills the server
	dnsTimeout    = 10 * time.Second
)

// Request is one HTTP request value.
type Request struct {
	// Method is the HTTP method.
	Method string
	// Path is the request path.
	Path string
	// Host is the client host name, looked up when HostnameLookups is in
	// effect (the dns mechanisms).
	Host string
	// SSL marks a secure request (draws kernel entropy for the handshake).
	SSL bool
	// AbortMidway marks that the client pressed stop during the transfer.
	AbortMidway bool
	// Session names the client session the request belongs to, when any. The
	// componentized server (Componentized.Serve) advances the session's
	// externalized counter on success; the monolithic server ignores it.
	Session string
}

// Response is the server's answer.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// Body is the response entity.
	Body string
}

// Server is the simulated web server.
type Server struct {
	env    *simenv.Env
	faults *faultinject.Set

	mu       sync.Mutex
	running  bool
	degraded bool
	logFDs   []simenv.FD
	leakFDs  []simenv.FD
	children []simenv.PID

	// Component-tree hooks (see components.go). portBound tracks listening
	// port ownership so the listener part can release and rebind it without
	// double-binding; logSuspended makes a down logger serve unlogged.
	portBound    bool
	logSuspended bool

	// Logical state (travels through Snapshot/Restore).
	memBytes   int64
	leakUnits  int
	leakFDWant int
	requests   int64
	cacheBytes int64

	docs map[string]string   // path -> content
	dirs map[string][]string // directory path -> entries
}

// New builds a server over the environment with the given active bug set.
// A nil fault set yields a bug-free server.
func New(env *simenv.Env, faults *faultinject.Set) *Server {
	s := &Server{
		env:    env,
		faults: faults,
	}
	s.resetContent()
	return s
}

func (s *Server) resetContent() {
	s.docs = map[string]string{
		"/":            "<html>It works!</html>",
		"/index.html":  "<html>It works!</html>",
		"/manual/":     "Apache documentation",
		"/cgi-bin/env": "cgi output",
	}
	s.dirs = map[string][]string{
		"/pub/":   {"file1.tar.gz", "file2.tar.gz"},
		"/empty/": {},
	}
}

// Name returns the environment owner tag.
func (s *Server) Name() string { return Owner }

// Env returns the server's environment (for scenario staging).
func (s *Server) Env() *simenv.Env { return s.env }

// SetDegraded toggles degraded mode: the server keeps serving static content
// but suspends every disk-write and child-process path — access logging,
// proxy-cache stores, and CGI children. This is what lets a server on a full
// file system or an exhausted process table keep answering reads.
func (s *Server) SetDegraded(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = on
}

// Degraded reports whether degraded mode is on.
func (s *Server) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Running reports whether the server is started.
func (s *Server) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Start binds the port and opens the configured vhost log descriptors.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("httpd: already running")
	}
	if err := s.env.Net().BindPort(port, Owner); err != nil {
		if errors.Is(err, simenv.ErrPortInUse) && s.faults.Enabled(MechPortSquat) {
			return faultinject.FailCause(MechPortSquat, taxonomy.SymptomError,
				"cannot bind: hung child holds the port", err)
		}
		return fmt.Errorf("httpd: start: %w", err)
	}
	s.portBound = true
	if err := s.openLogFDs(); err != nil {
		_ = s.env.Net().ReleasePort(port)
		s.portBound = false
		return err
	}
	// Restore-mandated leaked descriptors: a truly generic recovery restores
	// every descriptor the application held, leaks included.
	for len(s.leakFDs) < s.leakFDWant {
		fd, err := s.env.FDs().Open(Owner)
		if err != nil {
			_ = s.env.Net().ReleasePort(port)
			s.portBound = false
			s.closeAllFDsLocked()
			return faultinject.FailCause(MechFDExhaustion, taxonomy.SymptomError,
				"cannot reopen held descriptors", err)
		}
		s.leakFDs = append(s.leakFDs, fd)
	}
	s.running = true
	s.logSuspended = false
	return nil
}

func (s *Server) openLogFDs() error {
	for len(s.logFDs) < vhostLogs {
		fd, err := s.env.FDs().Open(Owner)
		if err != nil {
			s.closeAllFDsLocked()
			return faultinject.FailCause(MechFDExhaustion, taxonomy.SymptomError,
				"cannot open vhost logs", err)
		}
		s.logFDs = append(s.logFDs, fd)
	}
	return nil
}

func (s *Server) closeLogFDsLocked() {
	for _, fd := range s.logFDs {
		_ = s.env.FDs().Close(fd)
	}
	s.logFDs = nil
}

func (s *Server) closeLeakFDsLocked() {
	for _, fd := range s.leakFDs {
		_ = s.env.FDs().Close(fd)
	}
	s.leakFDs = nil
}

func (s *Server) closeAllFDsLocked() {
	s.closeLogFDsLocked()
	s.closeLeakFDsLocked()
}

// Stop shuts the server down. Seeded bug: with MechPortSquat active, hung
// children are not killed and keep holding the listening port.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.running = false
	s.portBound = false
	s.closeAllFDsLocked()
	var kept []simenv.PID
	for _, pid := range s.children {
		p, ok := s.env.Procs().Lookup(pid)
		if ok && p.State == simenv.ProcHung && s.faults.Enabled(MechPortSquat) {
			kept = append(kept, pid) // the bug: hung children survive shutdown
			continue
		}
		_ = s.env.Procs().Kill(pid)
	}
	s.children = kept
	if len(kept) > 0 && s.faults.Enabled(MechPortSquat) {
		// The surviving children inherited the listening socket, so the port
		// stays bound (still under the application's owner tag — a recovery
		// system that kills the whole process group frees it).
		return
	}
	_ = s.env.Net().ReleasePort(port)
}

// Sig is a process signal.
type Sig int

const (
	// SigHUP asks for a graceful restart/rejuvenation.
	SigHUP Sig = iota + 1
)

// Signal delivers a signal. A healthy server rejuvenates on SIGHUP (kills
// children, truncates logs, frees leaked memory); the seeded SIGHUP bugs
// crash instead.
func (s *Server) Signal(sig Sig) error {
	if sig != SigHUP {
		return fmt.Errorf("httpd: unknown signal %d", sig)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return errors.New("httpd: not running")
	}
	if s.faults.Enabled(MechSighupCrash) {
		s.running = false
		return faultinject.Fail(MechSighupCrash, taxonomy.SymptomCrash,
			"SIGHUP kills the server instead of restarting it")
	}
	if s.faults.Enabled(MechMemoryLeakHup) && s.memBytes > memLimitBytes {
		s.running = false
		return faultinject.Fail(MechMemoryLeakHup, taxonomy.SymptomCrash,
			fmt.Sprintf("HUP with %d MB of leaked shared memory freezes the server", s.memBytes>>20))
	}
	// Rejuvenation proper (paper §6.2): reclaim children, logs, leaked heap.
	for _, pid := range s.children {
		_ = s.env.Procs().Kill(pid)
	}
	s.children = nil
	if s.env.Disk().Exists(accessLog) {
		_ = s.env.Disk().Truncate(accessLog)
	}
	s.memBytes = 0
	return nil
}

// Requests returns the number of requests served.
func (s *Server) Requests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// Serve handles one request. When an active seeded bug fires, the returned
// error is a *faultinject.FailureError describing the mechanism and symptom.
func (s *Server) Serve(req Request) (Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return Response{}, errors.New("httpd: not running")
	}
	s.requests++

	if resp, err, done := s.preamble(req); done {
		return resp, err
	}

	// Environment-independent seeded bugs, in request-processing order.
	if s.faults.Enabled(MechLongURLOverflow) && len(req.Path) > 8000 {
		s.running = false
		return Response{}, faultinject.Fail(MechLongURLOverflow, taxonomy.SymptomCrash,
			"hash calculation overflow on a very long URL")
	}
	if bug, ok := strings.CutPrefix(req.Path, "/bug/"); ok {
		if resp, err, done := s.genericEIBug(bug); done {
			return resp, err
		}
	}

	// Memory accounting (leaks only when the leak bug is active).
	if s.faults.Enabled(MechMemoryLeakHup) {
		s.memBytes += 256 << 10
	}
	if s.faults.Enabled(MechLoadResourceLeak) {
		s.leakUnits++
		if s.leakUnits > leakUnitCap {
			s.running = false
			return Response{}, faultinject.Fail(MechLoadResourceLeak, taxonomy.SymptomCrash,
				"unknown resource exhausted after sustained load")
		}
	}
	if s.faults.Enabled(MechFDExhaustion) {
		fd, err := s.env.FDs().Open(Owner)
		if err != nil {
			return Response{}, faultinject.FailCause(MechFDExhaustion, taxonomy.SymptomError,
				"per-request descriptor unavailable", err)
		}
		s.leakFDs = append(s.leakFDs, fd) // the bug: never closed
		s.leakFDWant = len(s.leakFDs)
	}

	// Logging: a healthy server rotates on an oversized log; the seeded bug
	// fails instead. A full file system fails the write either way, but only
	// the active mechanism reports it as the application failure under test.
	// Degraded mode suspends logging entirely — reads outlive a full disk.
	if !s.degraded && !s.logSuspended {
		if err := s.logRequest(); err != nil {
			return Response{}, err
		}
	}

	if resp, err, done := s.serveContent(req); done {
		return resp, err
	}

	// Child handling for the request (CGI-style).
	if err := s.spawnChildIfNeeded(req); err != nil {
		return Response{}, err
	}

	if s.faults.Enabled(MechClientAbort) && req.AbortMidway {
		if s.env.Sched().RaceFires(MechClientAbort, 3) {
			s.running = false
			return Response{}, faultinject.Fail(MechClientAbort, taxonomy.SymptomCrash,
				"child died when the client aborted mid-transfer")
		}
	}

	return Response{Status: 200, Body: s.docs[req.Path]}, nil
}

// preamble checks the environment-level preconditions shared by every
// request: interface presence, link speed, name service, entropy, and the
// opaque kernel network resource.
func (s *Server) preamble(req Request) (Response, error, bool) {
	if s.faults.Enabled(MechPCMCIARemoval) && !s.env.Net().InterfacePresent() {
		return Response{}, faultinject.FailCause(MechPCMCIARemoval, taxonomy.SymptomError,
			"network interface is gone", simenv.ErrNetworkDown), true
	}
	if s.faults.Enabled(MechSlowNetwork) && s.env.Net().Slow() {
		return Response{}, faultinject.Fail(MechSlowNetwork, taxonomy.SymptomError,
			"transfer failed on a saturated link"), true
	}
	if s.faults.Enabled(MechNetResource) {
		if err := s.env.Net().AcquireResource(); err != nil {
			return Response{}, faultinject.FailCause(MechNetResource, taxonomy.SymptomError,
				"kernel network resource exhausted", err), true
		}
		s.env.Net().ReleaseResource()
	}
	if req.Host != "" && (s.faults.Enabled(MechDNSError) || s.faults.Enabled(MechDNSSlow)) {
		_, latency, err := s.env.DNS().Lookup(req.Host)
		if err != nil && s.faults.Enabled(MechDNSError) {
			return Response{}, faultinject.FailCause(MechDNSError, taxonomy.SymptomError,
				"hostname lookup failed", err), true
		}
		if latency > dnsTimeout && s.faults.Enabled(MechDNSSlow) {
			return Response{}, faultinject.Fail(MechDNSSlow, taxonomy.SymptomHang,
				"request stalled on a slow DNS response"), true
		}
	}
	if req.SSL && s.faults.Enabled(MechEntropyStarved) {
		if err := s.env.Entropy().Draw(256); err != nil {
			return Response{}, faultinject.FailCause(MechEntropyStarved, taxonomy.SymptomError,
				"ssl handshake starved for entropy", err), true
		}
	}
	return Response{}, nil, false
}

// genericEIBug fires the template-class environment-independent bugs, which
// trigger on dedicated request paths (/bug/<name>).
func (s *Server) genericEIBug(bug string) (Response, error, bool) {
	key := "httpd/" + bug
	if !s.faults.Enabled(key) {
		return Response{}, nil, false
	}
	switch key {
	case MechNullDeref, MechBounds, MechTypeMismatch, MechMissingCheck, MechDoubleFree:
		s.running = false
		return Response{}, faultinject.Fail(key, taxonomy.SymptomCrash,
			"deterministic crash in request processing"), true
	case MechParseLoop:
		s.running = false
		return Response{}, faultinject.Fail(key, taxonomy.SymptomHang,
			"parser spins forever on the malformed token"), true
	case MechBadInit, MechWrongStatus:
		return Response{Status: 200, Body: ""}, faultinject.Fail(key, taxonomy.SymptomError,
			"wrong response assembled from uninitialized state"), true
	}
	return Response{}, nil, false
}

func (s *Server) logRequest() error {
	err := s.env.Disk().Append(accessLog, Owner, 128)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, simenv.ErrFileTooLarge):
		if s.faults.Enabled(MechLogFileLimit) {
			return faultinject.FailCause(MechLogFileLimit, taxonomy.SymptomError,
				"access log hit the maximum file size", err)
		}
		// Healthy behaviour: rotate and retry once.
		if terr := s.env.Disk().Truncate(accessLog); terr != nil {
			return fmt.Errorf("httpd: rotate: %w", terr)
		}
		return s.env.Disk().Append(accessLog, Owner, 128)
	case errors.Is(err, simenv.ErrDiskFull):
		if s.faults.Enabled(MechFSFull) {
			return faultinject.FailCause(MechFSFull, taxonomy.SymptomError,
				"full file system stops the server", err)
		}
		return nil // healthy server drops the log line and carries on
	default:
		return fmt.Errorf("httpd: log: %w", err)
	}
}

func (s *Server) serveContent(req Request) (Response, error, bool) {
	// Proxy cache writes.
	if strings.HasPrefix(req.Path, "/proxy/") {
		if s.degraded {
			// Degraded mode serves uncached rather than touching the disk.
			return Response{Status: 200, Body: "proxied content"}, nil, true
		}
		if err := s.env.Disk().Append(cacheFile, Owner, 4096); err != nil {
			if s.faults.Enabled(MechDiskCacheFull) {
				return Response{}, faultinject.FailCause(MechDiskCacheFull, taxonomy.SymptomError,
					"proxy cache cannot store temporary files", err), true
			}
			// Healthy behaviour: serve uncached.
		} else {
			s.cacheBytes += 4096 // s.mu held by Serve
		}
		return Response{Status: 200, Body: "proxied content"}, nil, true
	}
	// Directory listings.
	if entries, ok := s.dirs[req.Path]; ok {
		if len(entries) == 0 && s.faults.Enabled(MechPallocZero) {
			s.running = false
			return Response{}, faultinject.Fail(MechPallocZero, taxonomy.SymptomCrash,
				"palloc(0) in index_directory on an empty directory"), true
		}
		sorted := append([]string(nil), entries...)
		sort.Strings(sorted)
		return Response{Status: 200, Body: "Index of " + req.Path + ": " + strings.Join(sorted, ", ")}, nil, true
	}
	// Plain documents.
	if _, ok := s.docs[req.Path]; ok {
		return Response{}, nil, false // fall through to the child/abort path
	}
	// Nonexistent URL.
	if s.faults.Enabled(MechValistReuse) {
		s.running = false
		return Response{}, faultinject.Fail(MechValistReuse, taxonomy.SymptomCrash,
			"va_list reused in ap_log_rerror for the 404 page"), true
	}
	return Response{Status: 404, Body: "Not Found"}, nil, true
}

func (s *Server) spawnChildIfNeeded(req Request) error {
	if !strings.HasPrefix(req.Path, "/cgi-bin/") {
		return nil
	}
	if s.degraded {
		// Degraded mode spawns no children: the cached CGI output is served
		// without touching the (possibly exhausted) process table.
		return nil
	}
	pid, err := s.env.Procs().Spawn(Owner)
	if err != nil {
		if s.faults.Enabled(MechProcTableFull) {
			return faultinject.FailCause(MechProcTableFull, taxonomy.SymptomHang,
				"no process slots left for the CGI child", err)
		}
		return fmt.Errorf("httpd: spawn: %w", err)
	}
	if s.faults.Enabled(MechProcTableFull) || s.faults.Enabled(MechPortSquat) {
		// The bug: the child hangs and is never reaped; with the port-squat
		// variant it also grabs the listening port on the side.
		_ = s.env.Procs().Hang(pid)
		s.children = append(s.children, pid)
		return nil
	}
	// Healthy behaviour: the child finishes and is reaped immediately.
	if err := s.env.Procs().Exit(pid); err != nil {
		return fmt.Errorf("httpd: exit: %w", err)
	}
	return s.env.Procs().Reap(pid)
}

// serverState is the server's logical state as a snapshot carries it. The
// document tree is not in it: resetContent installs constant content and
// nothing mutates it, so a restored server already holds the same tree.
type serverState struct {
	MemBytes   int64
	LeakUnits  int
	LeakFDWant int
	Requests   int64
	CacheBytes int64
}

// Snapshot captures the server's complete logical state. Children are
// deliberately absent: transient helper processes are not logical state, and
// a failover (which kills the primary's processes) does not resurrect them.
// Held descriptors are counted, because a truly generic recovery restores
// every resource the application state says it holds.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := snapwire.NewEncoder(snapwire.TagHTTPD)
	e.Int(s.memBytes)
	e.Int(int64(s.leakUnits))
	e.Int(int64(s.leakFDWant))
	e.Int(s.requests)
	e.Int(s.cacheBytes)
	return e.Bytes(), nil
}

// decodeState reads a snapshot written by Snapshot.
func decodeState(snapshot []byte) (serverState, error) {
	d := snapwire.NewDecoder(snapwire.TagHTTPD, snapshot)
	st := serverState{
		MemBytes:   d.Int(),
		LeakUnits:  int(d.Int()),
		LeakFDWant: int(d.Int()),
		Requests:   d.Int(),
		CacheBytes: d.Int(),
	}
	return st, d.Finish()
}

// Restore replaces the server's logical state from a snapshot and restarts
// it, re-acquiring the port, the vhost logs, and every held descriptor the
// state mandates. The server must be stopped.
func (s *Server) Restore(snapshot []byte) error {
	st, err := decodeState(snapshot)
	if err != nil {
		return fmt.Errorf("httpd: restore: %w", err)
	}
	return s.restoreState(st)
}

// restoreState installs a decoded state and restarts the server.
func (s *Server) restoreState(st serverState) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return errors.New("httpd: restore while running")
	}
	// The failed instance's descriptors died with its process (the recovery
	// system reclaims them); drop the stale handles so Start re-acquires
	// everything the restored state mandates.
	s.closeAllFDsLocked()
	s.memBytes = st.MemBytes
	s.leakUnits = st.LeakUnits
	s.leakFDWant = st.LeakFDWant
	s.requests = st.Requests
	s.cacheBytes = st.CacheBytes
	s.children = nil
	s.mu.Unlock()
	return s.Start()
}

// Reset reinitializes the server to its pristine configuration — the
// application-specific recovery the paper contrasts with generic recovery.
// All accumulated state (leaks, counters, cache) is discarded. The server
// must be stopped.
func (s *Server) Reset() error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return errors.New("httpd: reset while running")
	}
	s.closeAllFDsLocked()
	s.memBytes = 0
	s.leakUnits = 0
	s.leakFDWant = 0
	s.requests = 0
	s.cacheBytes = 0
	s.children = nil
	s.resetContent()
	s.mu.Unlock()
	return s.Start()
}
