package simenv

import (
	"fmt"
	"math/rand"
	"testing"
)

// eagerScheduler is the reference the lazily seeded Scheduler must match: it
// builds a fresh generator on every reseed, as the scheduler once did.
type eagerScheduler struct {
	rng    *rand.Rand
	forced map[string]int
}

func (r *eagerScheduler) reseed(seed int64) {
	r.rng = rand.New(rand.NewSource(seed))
}

func (r *eagerScheduler) interleave(point string, n int) int {
	if n <= 0 {
		return 0
	}
	if c, ok := r.forced[point]; ok {
		if c >= n {
			c = n - 1
		}
		return c
	}
	return r.rng.Intn(n)
}

func (r *eagerScheduler) raceFires(point string, window int) bool {
	if window <= 1 {
		return true
	}
	return r.interleave(point, window) == 0
}

// TestLazySchedulerMatchesEagerReference drives an Env and the eager
// reference through the same seeded random sequences of Reroll, Interleave,
// RaceFires, Force, Unforce and UnforceAll and requires identical choices.
// The reference's seeds come from a mirror of the Env's generator: one draw
// when the scheduler is built, one per Reroll.
func TestLazySchedulerMatchesEagerReference(t *testing.T) {
	points := []string{"accept", "flush", "reap"}
	for trial := int64(0); trial < 50; trial++ {
		seed := 1000 + trial
		env := New(seed)
		mirror := rand.New(rand.NewSource(seed))
		ref := &eagerScheduler{forced: map[string]int{}}
		ref.reseed(mirror.Int63())

		ops := rand.New(rand.NewSource(trial))
		for step := 0; step < 400; step++ {
			point := points[ops.Intn(len(points))]
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := ops.Intn(10); {
			case k < 3:
				env.Reroll()
				ref.reseed(mirror.Int63())
			case k < 6:
				n := ops.Intn(6)
				if got, want := env.Sched().Interleave(point, n), ref.interleave(point, n); got != want {
					t.Fatalf("%s: Interleave(%q, %d) = %d, reference %d", where, point, n, got, want)
				}
			case k < 8:
				w := ops.Intn(5)
				if got, want := env.Sched().RaceFires(point, w), ref.raceFires(point, w); got != want {
					t.Fatalf("%s: RaceFires(%q, %d) = %v, reference %v", where, point, w, got, want)
				}
			case k == 8:
				c := ops.Intn(4)
				env.Sched().Force(point, c)
				ref.forced[point] = c
			default:
				if ops.Intn(3) == 0 {
					env.Sched().UnforceAll()
					ref.forced = map[string]int{}
				} else {
					env.Sched().Unforce(point)
					delete(ref.forced, point)
				}
			}
		}
	}
}

func TestRerollWithoutDrawDoesNotAllocate(t *testing.T) {
	fresh := New(3)
	if n := testing.AllocsPerRun(100, fresh.Reroll); n != 0 {
		t.Errorf("Reroll before any draw: %v allocs, want 0", n)
	}
	drawn := New(3)
	drawn.Sched().Interleave("x", 4)
	if n := testing.AllocsPerRun(100, drawn.Reroll); n != 0 {
		t.Errorf("Reroll after a draw: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		drawn.Reroll()
		drawn.Sched().Interleave("x", 4)
	}); n != 0 {
		t.Errorf("Reroll then draw on an existing generator: %v allocs, want 0", n)
	}
}
