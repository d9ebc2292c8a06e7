package traffic

import (
	"fmt"
	"math/rand"
	"time"
)

// Arrival is one entry of the precomputed open-loop schedule.
type Arrival struct {
	// Seq is the request's position in the schedule.
	Seq int
	// User is the simulated user the request belongs to. Users rotate
	// round-robin so a schedule at least as long as the user pool exercises
	// every user.
	User int
	// At is the absolute virtual-clock arrival time.
	At time.Duration
	// U is the request's uniform category draw in [0, 1); the serving tier
	// maps it onto an operation mix.
	U float64
	// Service is the request's sampled service latency — what the request
	// costs a healthy server. Open-loop traffic does not serialize on it:
	// it is recorded, not charged to the clock.
	Service time.Duration
}

// GenConfig describes one open-loop traffic schedule.
type GenConfig struct {
	// Seed makes the schedule reproducible; every draw comes from it.
	Seed int64
	// Users is the size of the simulated-user pool (must be positive).
	Users int
	// Requests is the schedule length (must be positive).
	Requests int
	// Process is the arrival process; nil defaults to Poisson with a 1ms
	// mean gap.
	Process Arrivals
}

// serviceDist is the service-latency distribution every schedule samples:
// mostly fast sub-millisecond hits with a small slow tail, spread to exercise
// the request-latency histogram buckets.
func serviceDist() *LatencyDist {
	l, err := ParseLatencyDist("60%300us,25%900us,10%3ms,4%12ms,1%80ms")
	if err != nil {
		panic(err) // the literal above is a compile-time property
	}
	return l
}

// Schedule precomputes the whole arrival stream for cfg: a pure function of
// the seed, byte-identical wherever it is computed. One rng drives gaps,
// category draws, and service samples in arrival order, so the schedule is
// reproducible but the streams are not trivially correlated.
func Schedule(cfg GenConfig) ([]Arrival, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("traffic: schedule needs a positive user pool, got %d", cfg.Users)
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("traffic: schedule needs a positive request count, got %d", cfg.Requests)
	}
	proc := cfg.Process
	if proc == nil {
		proc = Poisson{MeanGap: time.Millisecond}
	}
	svc := serviceDist()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]Arrival, cfg.Requests)
	var t time.Duration
	for i := range out {
		t += proc.Next(rng)
		u := rng.Float64()
		out[i] = Arrival{
			Seq:     i,
			User:    i % cfg.Users,
			At:      t,
			U:       u,
			Service: svc.Sample(rng.Float64()),
		}
	}
	return out, nil
}
