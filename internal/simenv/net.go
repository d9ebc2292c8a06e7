package simenv

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

var (
	// ErrPortInUse is returned when binding an occupied port — the study's
	// "hung child processes hang onto required network ports" condition.
	ErrPortInUse = errors.New("simenv: port already bound")
	// ErrNetworkDown is returned when the network interface is absent — the
	// study's "removal of PCMCIA network card" condition.
	ErrNetworkDown = errors.New("simenv: network interface unavailable")
	// ErrNetResourceExhausted is returned when an unspecified kernel network
	// resource is exhausted — the study's "unknown network resource
	// exhausted" condition.
	ErrNetResourceExhausted = errors.New("simenv: network resource exhausted")
)

// Network simulates the host's network stack: interface presence, link
// speed, port bindings, and an opaque kernel network resource pool.
type Network struct {
	mu           sync.Mutex
	ifacePresent bool
	slow         bool
	slowHealIn   time.Duration
	ports        map[int]string // port -> owner
	resourceCap  int
	resourceUsed int
}

func newNetwork() *Network {
	return &Network{
		ifacePresent: true,
		ports:        make(map[int]string),
		resourceCap:  1024,
	}
}

// RemoveInterface pulls the network card. The condition is nontransient:
// nothing restores the card without operator action.
func (n *Network) RemoveInterface() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ifacePresent = false
}

// InterfacePresent reports whether the card is installed.
func (n *Network) InterfacePresent() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ifacePresent
}

// SlowFor stages a transiently slow network that heals after ttr of virtual
// time — the study's "slow network connection" transient.
func (n *Network) SlowFor(ttr time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.slow = true
	n.slowHealIn = ttr
}

// Slow reports whether the network is currently slow.
func (n *Network) Slow() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.slow
}

func (n *Network) advance(dt time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.slow {
		return
	}
	if dt >= n.slowHealIn {
		n.slow = false
		n.slowHealIn = 0
		return
	}
	n.slowHealIn -= dt
}

// BindPort binds a port for owner.
func (n *Network) BindPort(port int, owner string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.ifacePresent {
		return fmt.Errorf("bind %d: %w", port, ErrNetworkDown)
	}
	if holder, ok := n.ports[port]; ok {
		return fmt.Errorf("bind %d (held by %s): %w", port, holder, ErrPortInUse)
	}
	n.ports[port] = owner
	return nil
}

// ReleasePort unbinds a port.
func (n *Network) ReleasePort(port int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.ports[port]; !ok {
		return fmt.Errorf("simenv: release of unbound port %d", port)
	}
	delete(n.ports, port)
	return nil
}

// ReleaseOwnerPorts releases every port bound by owner and returns the count.
func (n *Network) ReleaseOwnerPorts(owner string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for port, o := range n.ports {
		if o == owner {
			delete(n.ports, port)
			c++
		}
	}
	return c
}

// AcquireResource takes one unit of the opaque kernel network resource.
func (n *Network) AcquireResource() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.ifacePresent {
		return ErrNetworkDown
	}
	if n.resourceUsed >= n.resourceCap {
		return ErrNetResourceExhausted
	}
	n.resourceUsed++
	return nil
}

// ReleaseResource returns one unit.
func (n *Network) ReleaseResource() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.resourceUsed > 0 {
		n.resourceUsed--
	}
}

// ResourceInUse returns the units currently held.
func (n *Network) ResourceInUse() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.resourceUsed
}

// SetResourceCap changes the opaque resource capacity.
func (n *Network) SetResourceCap(c int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resourceCap = c
}
