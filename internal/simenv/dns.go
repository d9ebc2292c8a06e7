package simenv

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

var (
	// ErrDNSFailure is returned when the name service answers with an error —
	// the study's "call to Domain Name Service returns an error" transient.
	ErrDNSFailure = errors.New("simenv: dns lookup failed")
	// ErrNoReverseDNS is returned when a reverse lookup has no PTR record —
	// the MySQL "reverse DNS is not configured for the remote host"
	// nontransient.
	ErrNoReverseDNS = errors.New("simenv: no reverse dns record")
)

// DNSMode is the health state of the name service.
type DNSMode int

const (
	// DNSHealthy answers quickly and correctly.
	DNSHealthy DNSMode = iota + 1
	// DNSSlow answers correctly but slowly (the study's "slow Domain Name
	// Service response").
	DNSSlow
	// DNSFailing answers with errors.
	DNSFailing
)

// String returns the mode name.
func (m DNSMode) String() string {
	switch m {
	case DNSHealthy:
		return "healthy"
	case DNSSlow:
		return "slow"
	case DNSFailing:
		return "failing"
	default:
		return fmt.Sprintf("DNSMode(%d)", int(m))
	}
}

// DNS simulates the Domain Name Service. Outages are transient: once a
// failure or slowdown is staged it heals after a time-to-recover elapses on
// the virtual clock, modelling "the DNS server is restarted" or "the network
// is fixed" without any action by the recovering application.
type DNS struct {
	mu        sync.Mutex
	rng       *rand.Rand
	mode      DNSMode
	healIn    time.Duration // time until mode returns to healthy; 0 = stable
	forward   map[string]string
	reverse   map[string]string
	baseDelay time.Duration
	slowDelay time.Duration
}

func newDNS(rng *rand.Rand) *DNS {
	return &DNS{
		rng:       rng,
		mode:      DNSHealthy,
		forward:   make(map[string]string),
		reverse:   make(map[string]string),
		baseDelay: 2 * time.Millisecond,
		slowDelay: 30 * time.Second,
	}
}

// Fail stages a DNS outage that heals after ttr of virtual time.
func (d *DNS) Fail(ttr time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mode = DNSFailing
	d.healIn = ttr
}

// Slow stages a DNS slowdown that heals after ttr of virtual time.
func (d *DNS) Slow(ttr time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mode = DNSSlow
	d.healIn = ttr
}

func (d *DNS) advance(dt time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mode == DNSHealthy || d.healIn == 0 {
		return
	}
	if dt >= d.healIn {
		d.mode = DNSHealthy
		d.healIn = 0
		return
	}
	d.healIn -= dt
}

// AddHost registers a forward A record and its PTR record.
func (d *DNS) AddHost(name, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.forward[name] = addr
	d.reverse[addr] = name
}

// AddHostNoReverse registers a forward record only — staging the MySQL
// missing-reverse-DNS condition.
func (d *DNS) AddHostNoReverse(name, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.forward[name] = addr
}

// Lookup resolves a hostname. It returns the answer latency so callers can
// observe slow responses; when the service is failing it returns
// ErrDNSFailure.
func (d *DNS) Lookup(name string) (addr string, latency time.Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.mode {
	case DNSFailing:
		return "", d.baseDelay, fmt.Errorf("lookup %q: %w", name, ErrDNSFailure)
	case DNSSlow:
		latency = d.slowDelay
	default:
		latency = d.baseDelay
	}
	a, ok := d.forward[name]
	if !ok {
		return "", latency, fmt.Errorf("lookup %q: %w", name, ErrDNSFailure)
	}
	return a, latency, nil
}

// Reverse resolves an address to a hostname. A missing PTR record returns
// ErrNoReverseDNS regardless of service health: it is a configuration
// condition, not an outage, which is why the paper classifies it as
// nontransient.
func (d *DNS) Reverse(addr string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mode == DNSFailing {
		return "", fmt.Errorf("reverse %q: %w", addr, ErrDNSFailure)
	}
	name, ok := d.reverse[addr]
	if !ok {
		return "", fmt.Errorf("reverse %q: %w", addr, ErrNoReverseDNS)
	}
	return name, nil
}
