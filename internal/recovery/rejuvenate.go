package recovery

import (
	"fmt"

	"faultstudy/internal/faultinject"
)

// RunRejuvenating executes the scenario's workload with periodic software
// rejuvenation (paper §6.2, after Huang95): every interval operations the
// application is stopped and reinitialized through its application-specific
// recovery code, *before* any failure occurs. No reactive recovery is
// attempted — the point of rejuvenation is prevention — so the first failure
// is terminal.
//
// Rejuvenation discards accumulated application state, which is exactly what
// defeats the resource-accumulation faults (leaks, descriptor hoarding) that
// state-preserving generic recovery carries across failover.
func (m *Manager) RunRejuvenating(app Application, sc faultinject.Scenario, interval int) (Outcome, error) {
	out := Outcome{Mechanism: sc.Mechanism, Strategy: StrategyCleanRestart}
	if interval <= 0 {
		return out, fmt.Errorf("recovery: rejuvenation interval %d must be positive", interval)
	}
	if err := app.Start(); err != nil {
		return out, fmt.Errorf("recovery: start %s: %w", app.Name(), err)
	}
	defer app.Stop()
	if sc.Stage != nil {
		sc.Stage()
	}
	for i, op := range sc.Ops {
		if i > 0 && i%interval == 0 {
			if _, err := Apply(app, Action{Rung: RungRestart}, nil); err != nil {
				return out, fmt.Errorf("recovery: rejuvenate before op %d: %w", i, err)
			}
			out.Recoveries++
		}
		if err := op.Do(); err != nil {
			fe, ok := faultinject.AsFailure(err)
			if !ok {
				return out, fmt.Errorf("recovery: op %q failed outside the fault model: %w", op.Name, err)
			}
			out.Failures++
			out.FirstFailure = fe
			out.Err = fe
			return out, nil
		}
	}
	out.Survived = true
	return out, nil
}
