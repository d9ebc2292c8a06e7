package supervise

import (
	"math/rand"
	"time"
)

// backoff produces the jittered exponential delay sequence the supervisor
// sleeps between recovery attempts: base·2^(attempt−1), capped, plus a
// uniformly drawn jitter fraction so synchronized restarts don't stampede.
// The jitter generator is dedicated to one sequence and derived only from
// the config seed, so the full delay sequence is reproducible from the seed
// alone (never the global math/rand source — see faultlint's rawrand rule).
// It is built the first time a delay is jittered: most supervised runs never
// back off, and seeding a generator they never draw from is wasted work.
type backoff struct {
	base   time.Duration
	cap    time.Duration
	jitter float64
	seed   int64
	rng    *rand.Rand // nil until the first jittered delay
}

// newBackoff builds the delay sequence whose jitter is drawn from a
// generator seeded with seed. A jitter of 0 yields the exact exponential
// sequence and never builds the generator.
func newBackoff(base, cap time.Duration, jitter float64, seed int64) *backoff {
	return &backoff{base: base, cap: cap, jitter: jitter, seed: seed}
}

// next returns the delay before the attempt-th recovery attempt (1-based).
func (b *backoff) next(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := b.base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= b.cap || d <= 0 {
			d = b.cap
			break
		}
	}
	if d > b.cap {
		d = b.cap
	}
	if b.jitter > 0 {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(b.seed))
		}
		d += time.Duration(float64(d) * b.jitter * b.rng.Float64())
	}
	return d
}

// BackoffSchedule returns the first n delays the supervisor would sleep for
// consecutive recovery attempts under cfg — the expected jittered exponential
// sequence, for tests and capacity planning. It consumes an independent
// generator seeded identically to the supervisor's, so it reproduces a run's
// backoff trace exactly.
func BackoffSchedule(cfg Config, n int) []time.Duration {
	cfg = cfg.withDefaults()
	b := newBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.BackoffJitter, cfg.Seed)
	out := make([]time.Duration, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, b.next(i))
	}
	return out
}
