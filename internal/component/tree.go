package component

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Spec declares one component's position in a Tree: the component itself,
// the components it requires, and what its crash-only reboot costs on the
// virtual clock.
type Spec struct {
	// Component is the unit being added.
	Component Component
	// Deps names the components this one requires. Dependencies must already
	// be in the tree, which keeps the graph acyclic by construction.
	Deps []string
	// StartCost is the virtual time one Start of this component charges —
	// the price of a microreboot, in simulated milliseconds.
	StartCost time.Duration
}

// Tree is a dependency-ordered collection of crash-only components — the
// componentized application's skeleton. It starts components in dependency
// order, stops them in reverse, and reboots a single component (or the
// subtree that depends on it) on demand, charging reboot time to the
// virtual clock.
//
// Tree methods are safe for concurrent use: one goroutine may reboot a
// component while others query liveness and serve through siblings.
type Tree struct {
	clock Clock

	mu    sync.Mutex
	nodes map[string]*node
	order []string // insertion order; dependencies precede dependents
	// reboots counts completed component reboots by name.
	reboots map[string]int
}

// node is one tree entry.
type node struct {
	spec Spec
}

// NewTree builds an empty tree over the given clock.
func NewTree(clock Clock) *Tree {
	return &Tree{
		clock:   clock,
		nodes:   make(map[string]*node),
		reboots: make(map[string]int),
	}
}

// Add inserts a component. It is an error to reuse a name or to depend on a
// component that has not been added yet (the ordering rule that keeps the
// dependency graph acyclic).
func (t *Tree) Add(spec Spec) error {
	if spec.Component == nil {
		return errors.New("component: Add with nil component")
	}
	name := spec.Component.Name()
	if name == "" {
		return errors.New("component: Add with empty name")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.nodes[name]; dup {
		return fmt.Errorf("component: %q already in tree", name)
	}
	for _, dep := range spec.Deps {
		if _, ok := t.nodes[dep]; !ok {
			return fmt.Errorf("component: %q depends on unknown %q (dependencies must be added first)", name, dep)
		}
	}
	t.nodes[name] = &node{spec: spec}
	t.order = append(t.order, name)
	return nil
}

// MustAdd adds and panics on error; for fixed catalogues whose shape is a
// compile-time property of the application.
func (t *Tree) MustAdd(spec Spec) {
	if err := t.Add(spec); err != nil {
		panic(err)
	}
}

// Names returns the component names in dependency order.
func (t *Tree) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// lookup returns the node for name or an error.
func (t *Tree) lookup(name string) (*node, error) {
	n, ok := t.nodes[name]
	if !ok {
		return nil, fmt.Errorf("component: unknown component %q", name)
	}
	return n, nil
}

// StartAll starts every component in dependency order, charging each
// component's StartCost. It stops at the first failure, leaving earlier
// components up.
func (t *Tree) StartAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.order {
		n := t.nodes[name]
		if n.spec.Component.Running() {
			continue
		}
		t.clock.Advance(n.spec.StartCost)
		if err := n.spec.Component.Start(); err != nil {
			return fmt.Errorf("component: start %s: %w", name, err)
		}
	}
	return nil
}

// StopAll stops every component in reverse dependency order.
func (t *Tree) StopAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.order) - 1; i >= 0; i-- {
		t.nodes[t.order[i]].spec.Component.Stop()
	}
}

// Running reports whether the named component is up; unknown names are not
// running.
func (t *Tree) Running(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[name]
	return ok && n.spec.Component.Running()
}

// AllRunning reports whether every component is up.
func (t *Tree) AllRunning() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.order {
		if !t.nodes[name].spec.Component.Running() {
			return false
		}
	}
	return true
}

// Probe runs every component's health probe and returns the findings by
// component name (empty map when everything is healthy).
func (t *Tree) Probe() map[string]error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]error)
	for _, name := range t.order {
		if err := t.nodes[name].spec.Component.Probe(); err != nil {
			out[name] = err
		}
	}
	return out
}

// SubtreeOf returns name followed by every transitive dependent, in
// dependency order — the set a widened Reboot cycles.
func (t *Tree) SubtreeOf(name string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.subtreeLocked(name)
}

func (t *Tree) subtreeLocked(name string) []string {
	in := map[string]bool{name: true}
	// One forward pass over insertion order suffices: dependencies precede
	// dependents, so a dependent of anything already in the set is seen
	// after it.
	var out []string
	for _, n := range t.order {
		if !in[n] {
			for _, dep := range t.nodes[n].spec.Deps {
				if in[dep] {
					in[n] = true
					break
				}
			}
		}
		if in[n] {
			out = append(out, n)
		}
	}
	return out
}

// RebootCost returns the virtual time a Reboot of name charges (zero for
// unknown names).
func (t *Tree) RebootCost(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[name]
	if !ok {
		return 0
	}
	return n.spec.StartCost
}

// SubtreeCost returns the virtual time a widened Reboot of name charges: the
// summed StartCost of the component and its transitive dependents.
func (t *Tree) SubtreeCost(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, n := range t.subtreeLocked(name) {
		total += t.nodes[n].spec.StartCost
	}
	return total
}

// Kill crash-stops one component without restarting it. Serving continues
// through siblings; operations routed through the dead component observe
// DownError until Restart brings it back.
func (t *Tree) Kill(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := t.lookup(name)
	if err != nil {
		return err
	}
	n.spec.Component.Kill()
	return nil
}

// Restart brings one killed component back up, charging its StartCost to
// the clock and counting the completed reboot.
func (t *Tree) Restart(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.restartLocked(name)
}

func (t *Tree) restartLocked(name string) error {
	n, err := t.lookup(name)
	if err != nil {
		return err
	}
	t.clock.Advance(n.spec.StartCost)
	if err := n.spec.Component.Start(); err != nil {
		return fmt.Errorf("component: restart %s: %w", name, err)
	}
	t.reboots[name]++
	return nil
}

// Reboot microreboots the named component — with widen, the component and
// every transitive dependent. The members are crash-stopped in reverse
// dependency order and restarted forward, each restart charging its
// StartCost; siblings outside the set are untouched. Between the two halves
// window, when non-nil, runs with the tree unlocked and the reboot's cost
// (RebootCost or SubtreeCost): the outage during which requests routed
// through a member observe DownError while siblings keep serving through the
// same tree. Every member is restarted even when an earlier one fails to
// start; the first error is returned.
func (t *Tree) Reboot(name string, widen bool, window func(cost time.Duration)) error {
	members, cost, err := t.killMembers(name, widen)
	if err != nil {
		return err
	}
	if window != nil {
		window(cost)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, m := range members {
		if err := t.restartLocked(m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// killMembers crash-stops Reboot's members in reverse dependency order and
// returns them with their summed StartCost.
func (t *Tree) killMembers(name string, widen bool) ([]string, time.Duration, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.lookup(name); err != nil {
		return nil, 0, err
	}
	members := []string{name}
	if widen {
		members = t.subtreeLocked(name)
	}
	var cost time.Duration
	for i := len(members) - 1; i >= 0; i-- {
		n := t.nodes[members[i]]
		n.spec.Component.Kill()
		cost += n.spec.StartCost
	}
	return members, cost, nil
}

// Reboots returns how many completed reboots the named component has had.
func (t *Tree) Reboots(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reboots[name]
}

// TotalReboots returns the completed reboot count across all components.
func (t *Tree) TotalReboots() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, n := range t.reboots {
		total += n
	}
	return total
}
