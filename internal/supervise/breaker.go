package supervise

import "faultstudy/internal/breaker"

// BreakerState is the lifecycle state of one mechanism's circuit breaker.
// The supervisor keys the shared breaker set by fault mechanism: the paper's
// headline result — 72–87% of faults are environment-independent and recur
// under any state-preserving retry — is what the breaker operationalizes.
// After enough recoveries in a row failed to change the outcome, the fault
// is treated as deterministic and retries stop.
type BreakerState = breaker.State

const (
	// BreakerClosed passes failures into the normal recovery ladder.
	BreakerClosed = breaker.Closed
	// BreakerOpen fails the mechanism fast: no retries are spent on it.
	BreakerOpen = breaker.Open
	// BreakerHalfOpen admits one trial recovery episode after the cooldown;
	// its outcome closes or re-opens the breaker.
	BreakerHalfOpen = breaker.HalfOpen
)

// BreakerStatus is the externally visible state of one mechanism's breaker.
type BreakerStatus struct {
	// Mechanism is the fault mechanism guarded.
	Mechanism string
	// State is the breaker lifecycle state.
	State BreakerState
	// Consecutive is the current failed-recovery streak.
	Consecutive int
}

// breakerStatuses snapshots every tracked mechanism's breaker, sorted by
// mechanism.
func breakerStatuses(s *breaker.Set) []BreakerStatus {
	all := s.Statuses()
	out := make([]BreakerStatus, len(all))
	for i, st := range all {
		out[i] = BreakerStatus{Mechanism: st.Key, State: st.State, Consecutive: st.Consecutive}
	}
	return out
}
