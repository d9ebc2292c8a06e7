package simenv

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrEntropyStarved is returned when /dev/random has too few bits — the
// study's "lack of events to generate sufficient random numbers in
// /dev/random" transient.
var ErrEntropyStarved = errors.New("simenv: entropy pool starved")

// EntropyPool simulates the kernel /dev/random pool. The pool refills as
// virtual time advances (interrupt events arrive), which is what makes
// entropy starvation a transient condition: recovery that simply waits will
// find the pool replenished.
type EntropyPool struct {
	mu   sync.Mutex
	bits int
}

const (
	// entropyCapBits is the pool's size, and what a new pool holds.
	entropyCapBits = 4096
	// entropyRefillRate is the refill in bits per second of virtual time.
	entropyRefillRate = 64
)

func newEntropyPool() *EntropyPool {
	return &EntropyPool{bits: entropyCapBits}
}

// Draw removes n bits from the pool, failing with ErrEntropyStarved when the
// pool holds fewer than n bits (a real /dev/random read would block; the
// applications under study treat the blocked read as a failure).
func (p *EntropyPool) Draw(n int) error {
	if n < 0 {
		return fmt.Errorf("simenv: negative entropy draw %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bits < n {
		return fmt.Errorf("draw %d bits (have %d): %w", n, p.bits, ErrEntropyStarved)
	}
	p.bits -= n
	return nil
}

// Drain empties the pool, staging the starvation condition.
func (p *EntropyPool) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bits = 0
}

func (p *EntropyPool) advance(dt time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	gained := int(dt.Seconds() * entropyRefillRate)
	p.bits += gained
	if p.bits > entropyCapBits {
		p.bits = entropyCapBits
	}
}
