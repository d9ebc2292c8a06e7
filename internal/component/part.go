package component

import "sync"

// Hooks are the optional lifecycle callbacks of a Part. Each hook runs with
// the part's own lock held but outside any tree lock ordering concern: hooks
// may take the application's lock, the application never calls back into the
// part.
type Hooks struct {
	// OnStart re-acquires whatever the part owns (descriptors, ports,
	// rehydrated view state). It runs on every transition from down to up —
	// including the first Start — and is where crash wreckage gets cleaned
	// up, per the crash-only contract.
	OnStart func() error
	// OnKill drops the part's resources on crash-stop. It must not block and
	// must not fail; there is deliberately no way to return an error.
	OnKill func()
}

// Part is a Component assembled from callbacks — the building block the
// componentized applications use instead of writing five methods per part.
// Stop and Kill are the same operation: crash-only parts have no graceful
// shutdown path to maintain, which is precisely what makes Kill always safe.
type Part struct {
	name  string
	hooks Hooks

	mu sync.Mutex
	up bool
}

// NewPart builds a part with the given name and hooks.
func NewPart(name string, hooks Hooks) *Part {
	return &Part{name: name, hooks: hooks}
}

// Name returns the part's name.
func (p *Part) Name() string { return p.name }

// Start brings the part up, running OnStart; no-op when already up.
func (p *Part) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.up {
		return nil
	}
	if p.hooks.OnStart != nil {
		if err := p.hooks.OnStart(); err != nil {
			return err
		}
	}
	p.up = true
	return nil
}

// Stop crash-stops the part: in a crash-only design the orderly path and the
// crash path are the same path.
func (p *Part) Stop() { p.Kill() }

// Kill crash-stops the part, dropping its resources via OnKill.
func (p *Part) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.up {
		return
	}
	p.up = false
	if p.hooks.OnKill != nil {
		p.hooks.OnKill()
	}
}

// Running reports whether the part is up.
func (p *Part) Running() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}
