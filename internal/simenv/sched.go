package simenv

import (
	"math/rand"
	"sync"
)

// Scheduler simulates the kernel thread scheduler's interleaving decisions.
// Race-condition faults in the simulated applications trigger only under
// particular interleavings; the scheduler supplies those interleavings from a
// seeded generator so a run is deterministic until the environment is
// explicitly rerolled (Env.Reroll), which models the clock interrupt arriving
// at a different moment on retry.
//
// Seeding is lazy: a reseed only records the seed, and the generator is
// (re)seeded just before the next draw. Most rerolls are never drawn from,
// so they cost no generator work; the choices are exactly those of a
// generator rebuilt eagerly on every reseed.
type Scheduler struct {
	mu  sync.Mutex
	rng *rand.Rand
	// seed is the seed the next draw must start from, valid while pending.
	seed    int64
	pending bool
	// forced pins the next Interleave results for adversarial tests:
	// key -> forced choice.
	forced map[string]int
}

func newScheduler(rng *rand.Rand) *Scheduler {
	return &Scheduler{
		seed:    rng.Int63(),
		pending: true,
		forced:  make(map[string]int),
	}
}

func (s *Scheduler) reseed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed, s.pending = seed, true
}

// draw returns a choice in [0, n), first applying a pending seed. Reseeding
// the existing generator in place resets it exactly as building a new one
// from the same seed would. The caller holds s.mu.
func (s *Scheduler) draw(n int) int {
	if s.pending {
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.seed))
		} else {
			s.rng.Seed(s.seed)
		}
		s.pending = false
	}
	return s.rng.Intn(n)
}

// Interleave chooses which of n runnable threads at the named program point
// runs first and returns its index in [0, n). A forced choice, if staged for
// the point, wins.
func (s *Scheduler) Interleave(point string, n int) int {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.forced[point]; ok {
		if c >= n {
			c = n - 1
		}
		return c
	}
	return s.draw(n)
}

// Force pins the choice at a program point; used to stage the losing
// interleaving deterministically.
func (s *Scheduler) Force(point string, choice int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forced[point] = choice
}

// UnforceAll clears every pinned choice.
func (s *Scheduler) UnforceAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forced = make(map[string]int)
}

// RaceFires evaluates a two-way race at the named point: it returns true when
// the scheduler picks the losing interleaving. window is the number of
// equally likely interleavings of which exactly one loses; a window of 1
// always fires (the race is certain), larger windows fire with probability
// 1/window.
func (s *Scheduler) RaceFires(point string, window int) bool {
	if window <= 1 {
		return true
	}
	return s.Interleave(point, window) == 0
}
