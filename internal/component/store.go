package component

import (
	"strconv"
	"sync"
)

// Store is the externalized session-state store of a componentized
// application: a namespaced key-value map that lives *outside* every
// component, so killing a component — or restarting the whole process —
// never destroys a session. It is the crash-only design's load-bearing
// move: components may crash freely precisely because nothing worth keeping
// lives inside them.
//
// Buckets namespace the state by concern ("httpd/sessions",
// "sqldb/conns", ...). All methods are safe for concurrent use; sibling
// components read and write the store while another component is
// mid-reboot.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string]string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{buckets: make(map[string]map[string]string)}
}

// Put sets key in bucket to value.
func (s *Store) Put(bucket, key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string]string)
		s.buckets[bucket] = b
	}
	b[key] = value
}

// Get returns the value of key in bucket and whether it exists.
func (s *Store) Get(bucket, key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.buckets[bucket][key]
	return v, ok
}

// Incr increments the integer value of key in bucket by one and returns the
// new value. A missing or non-integer value counts as zero — the session
// sequence numbers this backs start at one.
func (s *Store) Incr(bucket, key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string]string)
		s.buckets[bucket] = b
	}
	var n int64
	if v, ok := b[key]; ok {
		n, _ = strconv.ParseInt(v, 10, 64) // a non-integer value parses as 0
	}
	n++
	b[key] = strconv.FormatInt(n, 10)
	return n
}
