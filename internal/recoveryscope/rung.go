package recoveryscope

import "fmt"

// Rung is one level of the recovery ladder, ordered by cost: a larger rung
// discards strictly more state (and loses strictly more service) than a
// smaller one. A prediction "under-scopes" when it names a rung below the
// cheapest that actually cures the fault, and "over-scopes" when it names
// one above it.
type Rung int

const (
	// RungNone means no rung on the ladder cures the fault (the environment
	// persists across every generic mechanism — the paper's unrecoverable
	// EDN residue). It never appears as a prediction, only as measured truth.
	RungNone Rung = iota
	// RungRetry re-issues the operation after a scheduling perturbation,
	// discarding nothing.
	RungRetry
	// RungMicroreboot crash-stops and restarts the owning component alone,
	// discarding its volatile state while siblings serve.
	RungMicroreboot
	// RungSubtreeReboot crash-stops the owning component's dependent subtree
	// in reverse dependency order and restarts it forward.
	RungSubtreeReboot
	// RungRestore bounces the whole process and reinstates the pre-operation
	// snapshot — generic recovery that preserves all application state,
	// leaks included.
	RungRestore
	// RungRestart bounces the whole process into pristine state, discarding
	// all accumulated application state.
	RungRestart
)

// rungNames are the canonical report names; "subtree-reboot" matches the
// obsv summary ladder order.
var rungNames = map[Rung]string{
	RungNone:          "none",
	RungRetry:         "retry",
	RungMicroreboot:   "microreboot",
	RungSubtreeReboot: "subtree-reboot",
	RungRestore:       "restore",
	RungRestart:       "restart",
}

// String returns the canonical rung name.
func (r Rung) String() string {
	if s, ok := rungNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// Rungs returns the ladder in ascending cost order, RungNone excluded —
// the probe axis of the SCOPE experiment.
func Rungs() []Rung {
	return []Rung{RungRetry, RungMicroreboot, RungSubtreeReboot, RungRestore, RungRestart}
}
