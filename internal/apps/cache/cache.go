// Package cache is a simulated LRU cache daemon ("cached") in the mold of
// memcached — the first app archetype outside the paper's three studied
// applications. It exists to test whether the EI/EDN/EDT taxonomy and the
// escalation ladder generalize beyond the studied set: the generated-corpus
// experiments sample faults against it alongside httpd, sqldb, and desktop.
//
// The daemon is a value-level simulation over the simulated operating
// environment, seeded with the same fault shapes the study catalogued:
// deterministic request-path defects (EI), resource exhaustion that persists
// until reclaimed (EDN), and transient timing/network conditions that heal
// on their own (EDT). Its logical state — the keyed items, the LRU order,
// and the hit counters — round-trips through Snapshot/Restore, so the
// generic-recovery proposition is as mechanically testable here as for the
// studied apps.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"faultstudy/internal/durable"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/snapwire"
	"faultstudy/internal/taxonomy"
)

// Owner is the environment owner tag for all daemon resources.
const Owner = "cached"

// Default resource limits of the simulated daemon.
const (
	port            = 11211
	defaultCapacity = 32
	// aofDir roots the append-only persistence store: a real write-ahead
	// log plus checkpoint (internal/durable) under /var/lib/cached, written
	// through the injectable disk so its faults damage actual bytes.
	aofDir        = "/var/lib/cached"
	maxValueBytes = 4096
	shadowCopyCap = 16 // leaked shadow copies before the daemon dies
	peerHost      = "peer.cache.example"
	peerTimeout   = 5 * time.Second
)

// Config sets up a Server.
type Config struct {
	// Capacity is the LRU entry capacity (0 means 32).
	Capacity int
}

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = defaultCapacity
	}
	return c
}

// Server is the simulated cache daemon.
type Server struct {
	env    *simenv.Env
	faults *faultinject.Set
	cfg    Config

	mu       sync.Mutex
	running  bool
	degraded bool
	connFDs  []simenv.FD

	// Component-tree hooks (see components.go). portBound tracks listening
	// port ownership so the listener part can release and rebind it;
	// aofSuspended makes a down persist component serve unpersisted.
	portBound    bool
	aofSuspended bool

	// store is the append-only persistence log: every acknowledged mutation
	// is WAL-logged through it, and rebooting the persist component reruns
	// real recovery (checkpoint-load + log-replay) over its bytes.
	store *durable.Store

	// Logical state (travels through Snapshot/Restore).
	items       map[string]string
	lru         []string // least-recent first
	requests    int64
	gets        int64
	hits        int64
	shadowBytes int
	connFDWant  int
	lastFlush   bool // previous op was a FLUSH (the double-free window)
}

// New builds a daemon over the environment with the given active bug set.
// A nil fault set yields a bug-free daemon.
func New(env *simenv.Env, faults *faultinject.Set, cfg Config) *Server {
	s := &Server{
		env:    env,
		faults: faults,
		cfg:    cfg.withDefaults(),
	}
	s.resetContent()
	return s
}

func (s *Server) resetContent() {
	s.items = map[string]string{
		"motd":    "welcome to cached",
		"version": "cached 1.0",
	}
	s.lru = []string{"motd", "version"}
}

// Name returns the environment owner tag.
func (s *Server) Name() string { return Owner }

// Env returns the daemon's environment (for scenario staging).
func (s *Server) Env() *simenv.Env { return s.env }

// SetDegraded toggles degraded mode: the daemon keeps answering reads from
// the local index but suspends every environment-touching side path — the
// append-only persistence log and the replication-peer fill on misses. This
// is what lets a daemon on a full partition or behind a flapping resolver
// keep serving hits.
func (s *Server) SetDegraded(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = on
}

// Running reports whether the daemon is started.
func (s *Server) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Start binds the port and reopens every connection descriptor the logical
// state says the daemon held (leaks included — a truly generic recovery
// restores them).
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("cache: already running")
	}
	if err := s.env.Net().BindPort(port, Owner); err != nil {
		return fmt.Errorf("cache: start: %w", err)
	}
	s.portBound = true
	for len(s.connFDs) < s.connFDWant {
		fd, err := s.env.FDs().Open(Owner)
		if err != nil {
			_ = s.env.Net().ReleasePort(port)
			s.portBound = false
			s.closeConnFDsLocked()
			return faultinject.FailCause(MechConnFDLeak, taxonomy.SymptomError,
				"cannot reopen held connection descriptors", err)
		}
		s.connFDs = append(s.connFDs, fd)
	}
	if err := s.reopenStoreLocked(); err != nil {
		_ = s.env.Net().ReleasePort(port)
		s.portBound = false
		s.closeConnFDsLocked()
		return err
	}
	s.running = true
	s.aofSuspended = false
	return nil
}

// reopenStoreLocked closes any previous store incarnation and runs durable
// recovery over whatever the append-only log left on disk — every boot of
// the persistence path is a real replay.
func (s *Server) reopenStoreLocked() error {
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
	st, _, err := durable.Open(s.env, Owner, aofDir, durable.Options{NoFD: true})
	if err != nil {
		return fmt.Errorf("cache: open aof store: %w", err)
	}
	s.store = st
	return nil
}

func (s *Server) closeConnFDsLocked() {
	for _, fd := range s.connFDs {
		_ = s.env.FDs().Close(fd)
	}
	s.connFDs = nil
}

// Stop shuts the daemon down, releasing the port and every descriptor.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.running = false
	s.portBound = false
	s.closeConnFDsLocked()
	if s.store != nil {
		s.store.Close()
	}
	_ = s.env.Net().ReleasePort(port)
}

// preamble runs the per-operation environment checks shared by every
// command: the leaked connection descriptor and the transient network
// conditions.
func (s *Server) preamble() error {
	if s.faults.Enabled(MechConnFDLeak) {
		fd, err := s.env.FDs().Open(Owner)
		if err != nil {
			return faultinject.FailCause(MechConnFDLeak, taxonomy.SymptomError,
				"per-connection descriptor unavailable", err)
		}
		s.connFDs = append(s.connFDs, fd) // the bug: never closed
		s.connFDWant = len(s.connFDs)
	}
	if s.faults.Enabled(MechSlowReplFlush) && s.env.Net().Slow() {
		return faultinject.Fail(MechSlowReplFlush, taxonomy.SymptomHang,
			"replication flush stalled on a saturated link")
	}
	return nil
}

// logAOF persists one mutation batch to the append-only log, synced before
// acknowledgement. Degraded mode and a down persist component skip
// persistence entirely; a healthy daemon on a full partition drops the log
// record and carries on, while the seeded disk-full bug fails the operation
// instead. A log at the maximum file size triggers the AOF rewrite — a
// checkpoint of the full state that truncates the log.
func (s *Server) logAOF(ops []durable.Op) error {
	if s.degraded || s.aofSuspended || s.store == nil {
		return nil
	}
	err := s.store.Apply(ops)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, simenv.ErrDiskFull):
		if s.faults.Enabled(MechAOFDiskFull) {
			return faultinject.FailCause(MechAOFDiskFull, taxonomy.SymptomError,
				"append-only log write failed on a full partition", err)
		}
		return nil
	case errors.Is(err, simenv.ErrFileTooLarge):
		if cerr := s.store.Checkpoint(); cerr != nil {
			return fmt.Errorf("cache: aof rewrite: %w", cerr)
		}
		return s.store.Apply(ops)
	default:
		return fmt.Errorf("cache: aof: %w", err)
	}
}

// touch moves key to the most-recent end of the LRU order.
func (s *Server) touch(key string) {
	for i, k := range s.lru {
		if k == key {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			break
		}
	}
	s.lru = append(s.lru, key)
}

// Get answers one lookup. A miss consults the replication peer when one is
// configured (the dns mechanisms); the seeded empty-key bug crashes on the
// sentinel unkeyed lookup.
func (s *Server) Get(key string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return "", errors.New("cache: not running")
	}
	s.requests++
	s.lastFlush = false
	if err := s.preamble(); err != nil {
		return "", err
	}
	if s.faults.Enabled(MechEmptyKeyDeref) && key == "" {
		s.running = false
		return "", faultinject.Fail(MechEmptyKeyDeref, taxonomy.SymptomCrash,
			"null item pointer dereferenced on an empty key")
	}
	s.gets++
	if v, ok := s.items[key]; ok {
		s.hits++
		s.touch(key)
		return v, nil
	}
	// Miss: fill from the replication peer unless degraded.
	if s.faults.Enabled(MechPeerDNSFlap) && !s.degraded {
		_, latency, err := s.env.DNS().Lookup(peerHost)
		if err != nil {
			return "", faultinject.FailCause(MechPeerDNSFlap, taxonomy.SymptomError,
				"replication peer lookup failed", err)
		}
		if latency > peerTimeout {
			return "", faultinject.Fail(MechPeerDNSFlap, taxonomy.SymptomHang,
				"miss fill stalled on a slow peer lookup")
		}
	}
	return "", nil
}

// Set stores one item, evicting the least-recently-used entry at capacity.
// The seeded bugs on this path: the TTL parser loop, the oversized-value
// bounds overrun, the off-by-one eviction, and the shadow-copy leak.
func (s *Server) Set(key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return errors.New("cache: not running")
	}
	s.requests++
	s.lastFlush = false
	if err := s.preamble(); err != nil {
		return err
	}
	if s.faults.Enabled(MechTTLParseLoop) && strings.Contains(value, "ttl=-1") {
		s.running = false
		return faultinject.Fail(MechTTLParseLoop, taxonomy.SymptomHang,
			"expiry parser spins forever on a negative TTL")
	}
	if s.faults.Enabled(MechBigValueBounds) && len(value) > maxValueBytes {
		s.running = false
		return faultinject.Fail(MechBigValueBounds, taxonomy.SymptomCrash,
			"slab bounds overrun storing an oversized value")
	}
	if s.faults.Enabled(MechShadowCopyLeak) {
		s.shadowBytes++
		if s.shadowBytes > shadowCopyCap {
			s.running = false
			return faultinject.Fail(MechShadowCopyLeak, taxonomy.SymptomCrash,
				"leaked shadow copies exhausted memory under sustained load")
		}
	}
	var evicted []durable.Op
	if _, exists := s.items[key]; !exists && len(s.items) >= s.cfg.Capacity {
		if s.faults.Enabled(MechEvictOffByOne) {
			s.running = false
			return faultinject.Fail(MechEvictOffByOne, taxonomy.SymptomCrash,
				"off-by-one in the eviction scan corrupted the LRU index")
		}
		if len(s.lru) > 0 {
			victim := s.lru[0]
			s.lru = s.lru[1:]
			delete(s.items, victim)
			evicted = []durable.Op{{Kind: durable.OpDelete, Key: victim}}
		}
	}
	// The eviction and the store travel as one atomic log record.
	ops := append(evicted, durable.Op{Kind: durable.OpPut, Key: key, Value: []byte(value)})
	if err := s.logAOF(ops); err != nil {
		return err
	}
	s.items[key] = value
	s.touch(key)
	return nil
}

// Del removes one item. The seeded expiry race: a delete interleaving with
// the background expiry sweep frees the entry twice.
func (s *Server) Del(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return errors.New("cache: not running")
	}
	s.requests++
	s.lastFlush = false
	if err := s.preamble(); err != nil {
		return err
	}
	if s.faults.Enabled(MechExpiryRace) && s.env.Sched().RaceFires(MechExpiryRace, 3) {
		s.running = false
		return faultinject.Fail(MechExpiryRace, taxonomy.SymptomCrash,
			"delete raced the expiry sweep and freed the entry twice")
	}
	if err := s.logAOF([]durable.Op{{Kind: durable.OpDelete, Key: key}}); err != nil {
		return err
	}
	delete(s.items, key)
	for i, k := range s.lru {
		if k == key {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			break
		}
	}
	return nil
}

// Stats reports the hit ratio. Seeded bugs: the division by a zero lookup
// count, and the stale counter snapshot that reports garbage.
func (s *Server) Stats() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return "", errors.New("cache: not running")
	}
	s.requests++
	s.lastFlush = false
	if err := s.preamble(); err != nil {
		return "", err
	}
	if s.faults.Enabled(MechStatsDivZero) && s.gets == 0 {
		s.running = false
		return "", faultinject.Fail(MechStatsDivZero, taxonomy.SymptomCrash,
			"hit-ratio division by a zero lookup count")
	}
	if s.faults.Enabled(MechWrongHitCount) {
		return "hits=-1 gets=-1", faultinject.Fail(MechWrongHitCount, taxonomy.SymptomError,
			"stats assembled from a stale counter snapshot")
	}
	return fmt.Sprintf("hits=%d gets=%d items=%d", s.hits, s.gets, len(s.items)), nil
}

// Flush empties the cache. The seeded bug: a second consecutive flush frees
// the (already freed) slab list again.
func (s *Server) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return errors.New("cache: not running")
	}
	s.requests++
	if err := s.preamble(); err != nil {
		return err
	}
	if s.faults.Enabled(MechFlushDoubleFree) && s.lastFlush {
		s.running = false
		return faultinject.Fail(MechFlushDoubleFree, taxonomy.SymptomCrash,
			"second flush freed the slab list twice")
	}
	s.lastFlush = true
	if err := s.logAOF([]durable.Op{{Kind: durable.OpClear}}); err != nil {
		return err
	}
	s.items = map[string]string{}
	s.lru = nil
	return nil
}

// serverState is the daemon's logical state as a snapshot carries it.
type serverState struct {
	Items       map[string]string
	LRU         []string
	Requests    int64
	Gets        int64
	Hits        int64
	ShadowBytes int
	ConnFDWant  int
}

// Snapshot captures the daemon's complete logical state, held (leaked)
// descriptors counted — a truly generic recovery restores every resource the
// state says the application held.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := snapwire.NewEncoder(snapwire.TagCache)
	e.StrMap(s.items)
	e.Strs(s.lru)
	e.Int(s.requests)
	e.Int(s.gets)
	e.Int(s.hits)
	e.Int(int64(s.shadowBytes))
	e.Int(int64(s.connFDWant))
	return e.Bytes(), nil
}

// decodeState reads a snapshot written by Snapshot.
func decodeState(snapshot []byte) (serverState, error) {
	d := snapwire.NewDecoder(snapwire.TagCache, snapshot)
	st := serverState{
		Items:       d.StrMap(),
		LRU:         d.Strs(),
		Requests:    d.Int(),
		Gets:        d.Int(),
		Hits:        d.Int(),
		ShadowBytes: int(d.Int()),
		ConnFDWant:  int(d.Int()),
	}
	return st, d.Finish()
}

// Restore replaces the daemon's logical state from a snapshot and restarts
// it, re-acquiring the port and every held descriptor the state mandates.
// The daemon must be stopped.
func (s *Server) Restore(snapshot []byte) error {
	st, err := decodeState(snapshot)
	if err != nil {
		return fmt.Errorf("cache: restore: %w", err)
	}
	return s.restoreState(st)
}

// restoreState installs a decoded state, restarts the daemon, and
// reconciles the append-only store with it.
func (s *Server) restoreState(st serverState) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return errors.New("cache: restore while running")
	}
	s.closeConnFDsLocked()
	s.items = st.Items
	if s.items == nil {
		s.items = map[string]string{}
	}
	s.lru = st.LRU
	s.requests = st.Requests
	s.gets = st.Gets
	s.hits = st.Hits
	s.shadowBytes = st.ShadowBytes
	s.connFDWant = st.ConnFDWant
	s.lastFlush = false
	s.mu.Unlock()
	if err := s.Start(); err != nil {
		return err
	}
	// Reconcile the append-only store with the restored state as one atomic
	// batch (clear + re-put in LRU order). A failure — say the partition is
	// still full — leaves the store wounded; the next append repairs it, and
	// the daemon serves from the restored index meanwhile.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		ops := []durable.Op{{Kind: durable.OpClear}}
		seen := make(map[string]bool, len(s.items))
		for _, key := range s.lru {
			if v, ok := s.items[key]; ok && !seen[key] {
				ops = append(ops, durable.Op{Kind: durable.OpPut, Key: key, Value: []byte(v)})
				seen[key] = true
			}
		}
		rest := make([]string, 0, len(s.items))
		for key := range s.items {
			if !seen[key] {
				rest = append(rest, key)
			}
		}
		sort.Strings(rest)
		for _, key := range rest {
			ops = append(ops, durable.Op{Kind: durable.OpPut, Key: key, Value: []byte(s.items[key])})
		}
		_ = s.store.Apply(ops)
	}
	return nil
}

// Reset reinitializes the daemon to its pristine configuration — the
// application-specific recovery the paper contrasts with generic recovery.
// All accumulated state (items, counters, leaks) is discarded. The daemon
// must be stopped.
func (s *Server) Reset() error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return errors.New("cache: reset while running")
	}
	s.closeConnFDsLocked()
	if s.store != nil {
		_ = s.store.Destroy()
		s.store = nil
	}
	s.requests = 0
	s.gets = 0
	s.hits = 0
	s.shadowBytes = 0
	s.connFDWant = 0
	s.lastFlush = false
	s.resetContent()
	s.mu.Unlock()
	return s.Start()
}

// DurableStore exposes the append-only persistence store for probes that
// verify acknowledged mutations against recovered bytes.
func (s *Server) DurableStore() *durable.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}
