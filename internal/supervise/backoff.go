package supervise

import (
	"math/rand"
	"time"

	"faultstudy/internal/breaker"
)

// backoff produces the jittered exponential delay sequence the supervisor
// sleeps between recovery attempts: the shared capped-doubling delay plus a
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
	d := breaker.Backoff(b.base, b.cap, attempt)
	if b.jitter > 0 {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(b.seed))
		}
		d += time.Duration(float64(d) * b.jitter * b.rng.Float64())
	}
	return d
}
