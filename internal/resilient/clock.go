package resilient

import (
	"context"
	"time"
)

// Clock is the client's view of time: deadlines, backoff sleeps, hedging
// thresholds, and breaker cooldowns all read it. Experiments inject the
// chaos layer's shared virtual clock (chaoshttp.VirtualClock satisfies this
// interface), which makes every retry schedule a pure function of the seed;
// the CLIs inject NewRealClock.
type Clock interface {
	// Now returns a monotonic reading.
	Now() time.Duration
	// Sleep pauses for d, returning early with the context's error if it
	// expires first.
	Sleep(ctx context.Context, d time.Duration) error
	// WithTimeout derives a per-try context bounded by d. Virtual clocks
	// return ctx unchanged and enforce the deadline after the fact.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// realClock reads the wall clock. It exists for the CLIs, which talk to real
// servers and hand the same clock to their chaos injector; every experiment
// path injects a virtual clock instead. It is the mining stack's only
// wall-clock reader.
type realClock struct {
	start time.Time
}

// NewRealClock returns a wall-clock-backed Clock whose Now is the elapsed
// time since construction.
func NewRealClock() Clock {
	return &realClock{start: time.Now()} //faultlint:ignore wallclock the real clock is the CLI's injection point; experiments inject the virtual clock
}

// Now returns the elapsed wall time since construction.
func (c *realClock) Now() time.Duration {
	return time.Since(c.start) //faultlint:ignore wallclock see NewRealClock
}

// Sleep pauses for d or until ctx expires.
func (c *realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d) //faultlint:ignore wallclock see NewRealClock
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WithTimeout bounds a per-try context with a real deadline.
func (c *realClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}
