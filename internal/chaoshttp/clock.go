package chaoshttp

import (
	"context"
	"sync"
	"time"
)

// Clock is the injector's view of time: it stamps the injection log, and
// latency faults sleep on it, bounded by the request's context. It is the
// subset of the resilient client's clock the injector uses, so one clock
// serves both: *VirtualClock in experiments, where a latency fault advances
// time instantly and runs stay byte-reproducible, and the resilient
// client's real clock in the CLI, where the per-try deadline cuts a latency
// fault short.
type Clock interface {
	// Now returns a monotonic reading.
	Now() time.Duration
	// Sleep pauses for d, returning early with the context's error if it
	// expires first.
	Sleep(ctx context.Context, d time.Duration) error
}

// VirtualClock is a shared, concurrency-safe virtual monotonic clock. The
// chaos injector sleeps on it to model latency and the resilient client
// reads and sleeps on it for deadlines and backoff — one timeline, no
// wall-clock reads, so MTTR measurements and retry schedules are
// deterministic functions of the seed.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewVirtualClock returns a clock at time zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual reading.
func (c *VirtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative advances are ignored).
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Sleep advances the clock by d immediately, honoring an already-expired
// context. It satisfies the injector's and the resilient client's Clock
// without ever touching the wall clock.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

// WithTimeout returns ctx unchanged: virtual per-try deadlines are enforced
// after the fact by comparing clock readings, not by real timers.
func (c *VirtualClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return ctx, func() {}
}
