// Package breaker holds the two storm-control primitives the lab's recovery
// layers share: a keyed circuit breaker (closed, open, half-open) and the
// capped exponential backoff delay. The supervisor keys breakers by fault
// mechanism and backs off between ladder rungs; the resilient HTTP client
// keys them by host and backs off between attempts. Both read time as a
// monotonic duration from their own clock, and each keeps its own jitter
// draw, so the delays and state changes here are pure functions of the
// inputs.
//
// The package is a stdlib-only leaf. A Set is not safe for concurrent use:
// callers that share one across goroutines hold their own lock.
package breaker

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// State is the lifecycle state of one key's circuit breaker.
type State int

const (
	// Closed admits traffic normally.
	Closed State = iota
	// Open fails traffic fast: no retries are spent on the key.
	Open
	// HalfOpen admits one trial after the cooldown; its outcome closes or
	// re-opens the breaker.
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// entry is one key's breaker record.
type entry struct {
	state       State
	consecutive int // failures in a row
	openedAt    time.Duration
}

// Set is a keyed breaker set: each key opens after threshold consecutive
// failures and admits a half-open trial once cooldown has passed since it
// opened. A key that fails every attempt is showing a nontransient
// condition, and spending retries on it recovers nothing.
type Set struct {
	threshold int
	cooldown  time.Duration
	m         map[string]*entry
}

// NewSet builds a breaker set. A threshold below 1 means 1.
func NewSet(threshold int, cooldown time.Duration) *Set {
	return &Set{threshold: max(threshold, 1), cooldown: cooldown, m: make(map[string]*entry)}
}

// get returns (creating if needed) the key's record.
func (s *Set) get(key string) *entry {
	e, ok := s.m[key]
	if !ok {
		e = &entry{}
		s.m[key] = e
	}
	return e
}

// Allow reports whether traffic for key may proceed at now. An open breaker
// whose cooldown has passed turns half-open and admits one trial.
func (s *Set) Allow(key string, now time.Duration) bool {
	e := s.get(key)
	if e.state != Open {
		return true
	}
	if now-e.openedAt >= s.cooldown {
		e.state = HalfOpen
		return true
	}
	return false
}

// Failure records one failure for key at now and reports whether the
// breaker newly opened. A failed half-open trial re-opens immediately.
func (s *Set) Failure(key string, now time.Duration) bool {
	e := s.get(key)
	e.consecutive++
	if e.state == HalfOpen || e.consecutive >= s.threshold {
		return s.open(e, now)
	}
	return false
}

// ForceOpen opens key's breaker at now regardless of its streak and reports
// whether it newly opened.
func (s *Set) ForceOpen(key string, now time.Duration) bool {
	e := s.get(key)
	e.consecutive = s.threshold
	return s.open(e, now)
}

// open moves e to open at now, reporting whether it was not open before.
func (s *Set) open(e *entry, now time.Duration) bool {
	wasOpen := e.state == Open
	e.state = Open
	e.openedAt = now
	return !wasOpen
}

// Success records a served request for key: the breaker closes and the
// failure streak resets.
func (s *Set) Success(key string) {
	e := s.get(key)
	e.state = Closed
	e.consecutive = 0
}

// Status is one key's breaker state, as a snapshot.
type Status struct {
	// Key is the guarded key.
	Key string
	// State is the breaker lifecycle state.
	State State
	// Consecutive is the current failure streak.
	Consecutive int
}

// Statuses returns every tracked key's state, sorted by key.
func (s *Set) Statuses() []Status {
	out := make([]Status, 0, len(s.m))
	for k, e := range s.m {
		out = append(out, Status{Key: k, State: e.state, Consecutive: e.consecutive})
	}
	slices.SortFunc(out, func(a, b Status) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Backoff returns the delay before the retry that follows the attempt-th
// attempt (1-based; lower values mean 1): base·2^(attempt−1), capped at
// limit. Callers add their own jitter on top.
func Backoff(base, limit time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= limit || d <= 0 {
			return limit
		}
	}
	return min(d, limit)
}
