package component

import "faultstudy/internal/simenv"

// app is the whole-process lifecycle a Process wraps — the method set of
// recovery.Application, restated here because recovery's own tests import
// the componentized apps.
type app interface {
	Name() string
	Start() error
	Stop()
	Running() bool
	Snapshot() ([]byte, error)
	Restore(snapshot []byte) error
	Reset() error
	Env() *simenv.Env
}

// Process is a componentized application: the wrapped monolithic process,
// its component tree, and the externalized store that outlives both. It
// implements recovery.Application — Name, Env, Running and Snapshot are the
// process's own; Start, Restore and Reset bring the tree up after the
// process — and Host. Snapshot deliberately leaves the store out: it lives
// in a different failure domain, so neither a crash, a rollback nor a reset
// touches it.
type Process struct {
	app
	tree    *Tree
	store   *Store
	compFor map[string]string
	contain func()
}

// NewProcess wraps a process with an empty tree over its environment's
// clock and a fresh store. compFor maps fault mechanisms to the components
// their defects live in; contain revives the process-level liveness flag
// (ContainCrash).
func NewProcess(a app, compFor map[string]string, contain func()) *Process {
	return &Process{
		app:     a,
		tree:    NewTree(EnvClock{Env: a.Env()}),
		store:   NewStore(),
		compFor: compFor,
		contain: contain,
	}
}

// Start boots the process and brings every component up.
func (p *Process) Start() error {
	if err := p.app.Start(); err != nil {
		return err
	}
	return p.tree.StartAll()
}

// Stop crash-stops every component in reverse dependency order, then shuts
// the process down.
func (p *Process) Stop() {
	p.tree.StopAll()
	p.app.Stop()
}

// Restore replaces the process state from a snapshot, restarts it, and
// brings the tree back up. The store is untouched.
func (p *Process) Restore(snapshot []byte) error {
	if err := p.app.Restore(snapshot); err != nil {
		return err
	}
	return p.tree.StartAll()
}

// Reset reinitializes the process to pristine state and brings the tree up.
// The store survives even this.
func (p *Process) Reset() error {
	if err := p.app.Reset(); err != nil {
		return err
	}
	return p.tree.StartAll()
}

// Tree returns the component tree.
func (p *Process) Tree() *Tree { return p.tree }

// Store returns the externalized store.
func (p *Process) Store() *Store { return p.store }

// ComponentFor maps a mechanism key to the component its defect lives in.
func (p *Process) ComponentFor(mechanism string) (string, bool) {
	name, ok := p.compFor[mechanism]
	return name, ok
}

// ContainCrash revives the process-level liveness flag after a crash that
// the component tree contains; the caller reboots the faulty component.
func (p *Process) ContainCrash() { p.contain() }

var _ Host = (*Process)(nil)
