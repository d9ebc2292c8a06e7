// Package recovery implements the recovery systems the paper reasons about
// (§2, §6) and runs them against the seeded faults — the end-to-end
// verification the authors proposed as future work (§5.4, §8).
//
// The central construct is the truly application-generic recovery system:
// it knows nothing about the application beyond the Application interface.
// On failure it declares the primary dead (the operating system reclaims
// every resource the dead process held), restores the checkpointed
// application state on a backup, lets the external world move (the takeover
// takes time; thread interleavings land differently), and re-executes the
// requested operation — because the user's task still has to be performed
// (§7: "all requested tasks need to be executed").
//
// The consequences the paper predicts fall out mechanically:
//
//   - environment-independent faults recur, because the state and the request
//     are both preserved exactly;
//   - nontransient environmental conditions (full disks, exhausted
//     descriptors the state re-acquires, broken host configuration) persist
//     across the takeover;
//   - transient conditions (races, DNS blips, slow links, drained entropy,
//     hung children the reclaim killed) clear, and the retry succeeds.
package recovery

import (
	"errors"
	"fmt"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// Application is the generic-recovery view of a simulated application. The
// recovery system may only use these methods — that is what makes it
// application-generic. internal/apps/httpd.Server, internal/apps/sqldb.Server
// and internal/apps/desktop.Desktop all satisfy it.
type Application interface {
	// Name returns the environment owner tag of the application's resources.
	Name() string
	// Start brings the application up, acquiring environment resources.
	Start() error
	// Stop shuts the application down gracefully.
	Stop()
	// Running reports whether the application is up.
	Running() bool
	// Snapshot captures the complete logical application state.
	Snapshot() ([]byte, error)
	// Restore replaces the logical state from a snapshot and restarts the
	// application, re-acquiring every state-mandated resource.
	Restore(snapshot []byte) error
	// Reset reinitializes the application to pristine state and restarts it
	// — the application-specific recovery path generic systems cannot use.
	Reset() error
	// Env returns the application's operating environment.
	Env() *simenv.Env
}

// Strategy selects a recovery system.
type Strategy int

const (
	// StrategyNone performs no recovery: the first failure is terminal.
	StrategyNone Strategy = iota + 1
	// StrategyProcessPairs is the truly generic system: checkpoint before
	// every operation; on failure, reclaim the dead primary's resources,
	// restore the checkpoint on the backup, let takeover time pass (the
	// environment evolves), and re-execute the failed operation.
	StrategyProcessPairs
	// StrategyProgressiveRetry is process pairs plus Wang93-style induced
	// environment change: each retry deliberately forces a different event
	// ordering at the failing program point and waits progressively longer.
	StrategyProgressiveRetry
	// StrategyCleanRestart is application-specific recovery: on failure,
	// reclaim and reinitialize the application to pristine state (losing all
	// accumulated state), then re-execute the failed operation.
	StrategyCleanRestart
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "none"
	case StrategyProcessPairs:
		return "process-pairs"
	case StrategyProgressiveRetry:
		return "progressive-retry"
	case StrategyCleanRestart:
		return "clean-restart"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies returns all strategies in presentation order.
func Strategies() []Strategy {
	return []Strategy{StrategyNone, StrategyProcessPairs, StrategyProgressiveRetry, StrategyCleanRestart}
}

// Generic reports whether the strategy is application-generic (uses no
// application-specific knowledge or code).
func (s Strategy) Generic() bool {
	return s == StrategyProcessPairs || s == StrategyProgressiveRetry
}

// Policy tunes a recovery run.
type Policy struct {
	// MaxRetries is how many times a failing operation is retried after
	// recovery before the run is declared lost (0 means 3).
	MaxRetries int
	// Takeover is the wall-clock the environment advances per recovery —
	// failure detection plus backup takeover (0 means 45s).
	Takeover time.Duration
	// SkipReclaim leaves the failed primary's operating-system resources
	// (hung children, held ports, open descriptors) in place instead of
	// reclaiming them — the ablation for the paper's observation that "the
	// recovery system is likely to kill all processes associated with the
	// application". With reclaim off, the process-table and port-holding
	// transients stop being survivable.
	SkipReclaim bool
	// GrowResources enables the §6.2 resource governor: when a failure's
	// underlying cause is an exhausted, growable environment resource
	// (descriptors, disk capacity, file-size limits, the opaque network
	// resource), the recovery widens the limit before retrying. Several
	// nontransient faults become survivable; conditions without a growable
	// resource stay fatal.
	GrowResources bool
	// Trace, when non-nil, receives an event at each step of a run: the
	// initial failure, every recovery action, every retry outcome, and the
	// final verdict. For logging and the recoverylab CLI.
	Trace func(TraceEvent)
}

// TraceEventKind discriminates trace events.
type TraceEventKind int

const (
	// TraceFailure is an operation failing with a seeded-bug error.
	TraceFailure TraceEventKind = iota + 1
	// TraceRecover is a recovery action (failover/restart) being applied.
	TraceRecover
	// TraceRetryOK is a retried operation succeeding.
	TraceRetryOK
	// TraceRetryFail is a retried operation failing again.
	TraceRetryFail
	// TraceGaveUp is the retry budget running out.
	TraceGaveUp
)

// String names the event kind.
func (k TraceEventKind) String() string {
	switch k {
	case TraceFailure:
		return "failure"
	case TraceRecover:
		return "recover"
	case TraceRetryOK:
		return "retry-ok"
	case TraceRetryFail:
		return "retry-fail"
	case TraceGaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("TraceEventKind(%d)", int(k))
	}
}

// TraceEvent is one step of a recovery run.
type TraceEvent struct {
	// Kind is the event kind.
	Kind TraceEventKind
	// At is the environment's monotonic virtual clock reading when the event
	// was emitted — deterministic for a seeded environment, so traces built
	// from these events are byte-stable across runs.
	At time.Duration
	// Op is the workload operation involved.
	Op string
	// Attempt is the retry attempt number (0 for the initial failure).
	Attempt int
	// Err is the error involved, when any.
	Err error
}

func (p Policy) withDefaults() Policy {
	// Negative values are configuration mistakes, not requests for "retry
	// minus-one times": clamp them to the defaults alongside the zero value.
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.Takeover <= 0 {
		p.Takeover = 45 * time.Second
	}
	return p
}

// Outcome is the result of running one scenario under one strategy.
type Outcome struct {
	// Mechanism is the seeded bug exercised.
	Mechanism string
	// Strategy is the recovery system used.
	Strategy Strategy
	// Survived reports whether the whole workload completed.
	Survived bool
	// Failures is how many operations failed during the run.
	Failures int
	// Recoveries is how many recoveries succeeded (the failed operation
	// passed on a retry).
	Recoveries int
	// Attempts is the total number of post-recovery retries executed.
	Attempts int
	// FirstFailure is the first seeded-bug failure observed.
	FirstFailure *faultinject.FailureError
	// Err is the terminal error for runs that did not survive.
	Err error
}

// Manager runs scenarios under recovery strategies.
type Manager struct {
	policy Policy
}

// NewManager builds a manager.
func NewManager(policy Policy) *Manager {
	return &Manager{policy: policy.withDefaults()}
}

// Run executes the scenario's workload against the application under the
// given strategy and reports the outcome. The application must be
// constructed with exactly the scenario's mechanism enabled and must not be
// started; Run starts it, stages the environment, and drives the ops.
//
// Errors are reserved for harness problems (the application failed in a way
// the scenario did not predict); every behaviour of the recovery system
// itself — including recoveries that make things worse — lands in Outcome.
func (m *Manager) Run(app Application, sc faultinject.Scenario, strat Strategy) (Outcome, error) {
	out := Outcome{Mechanism: sc.Mechanism, Strategy: strat}
	env := app.Env()
	if err := app.Start(); err != nil {
		return out, fmt.Errorf("recovery: start %s: %w", app.Name(), err)
	}
	defer app.Stop()
	if sc.Stage != nil {
		sc.Stage()
	}

	for _, op := range sc.Ops {
		snapshot, err := app.Snapshot()
		if err != nil {
			return out, fmt.Errorf("recovery: checkpoint before %q: %w", op.Name, err)
		}
		err = op.Do()
		if err == nil {
			continue
		}
		fe, ok := faultinject.AsFailure(err)
		if !ok {
			return out, fmt.Errorf("recovery: op %q failed outside the fault model: %w", op.Name, err)
		}
		out.Failures++
		if out.FirstFailure == nil {
			out.FirstFailure = fe
		}
		m.trace(env, TraceEvent{Kind: TraceFailure, Op: op.Name, Err: fe})
		if strat == StrategyNone {
			out.Err = fe
			return out, nil
		}

		recovered := false
		for attempt := 1; attempt <= m.policy.MaxRetries; attempt++ {
			out.Attempts++
			m.trace(env, TraceEvent{Kind: TraceRecover, Op: op.Name, Attempt: attempt})
			if rerr := m.recover(app, snapshot, strat, fe, attempt); rerr != nil {
				out.Err = fmt.Errorf("recovery failed on attempt %d: %w", attempt, rerr)
				return out, nil
			}
			retryErr := op.Do()
			if retryErr == nil {
				recovered = true
				out.Recoveries++
				m.trace(env, TraceEvent{Kind: TraceRetryOK, Op: op.Name, Attempt: attempt})
				break
			}
			m.trace(env, TraceEvent{Kind: TraceRetryFail, Op: op.Name, Attempt: attempt, Err: retryErr})
			if rfe, ok := faultinject.AsFailure(retryErr); ok {
				fe = rfe
				continue
			}
			// The strategy broke the application for this workload (e.g. a
			// state-discarding restart lost the tables an INSERT needs).
			out.Err = fmt.Errorf("retry of %q failed outside the fault model: %w", op.Name, retryErr)
			return out, nil
		}
		if !recovered {
			m.trace(env, TraceEvent{Kind: TraceGaveUp, Op: op.Name, Attempt: m.policy.MaxRetries, Err: fe})
			out.Err = fe
			return out, nil
		}
	}
	out.Survived = true
	return out, nil
}

// trace emits an event to the policy's trace hook, when one is set, stamped
// with the environment's monotonic clock. Nothing is computed when tracing
// is disabled.
func (m *Manager) trace(env *simenv.Env, ev TraceEvent) {
	if m.policy.Trace != nil {
		ev.At = env.Monotonic()
		m.policy.Trace(ev)
	}
}

// recover applies one recovery action. The dead primary's operating-system
// resources are reclaimed in every strategy — processes do not outlive their
// failure — and the environment advances by the takeover time.
func (m *Manager) recover(app Application, snapshot []byte, strat Strategy, fe *faultinject.FailureError, attempt int) error {
	env := app.Env()
	app.Stop()
	if !m.policy.SkipReclaim {
		env.ReclaimOwner(app.Name())
	}
	if m.policy.GrowResources {
		growResources(env, fe)
	}
	env.Advance(m.policy.Takeover)
	// Every strategy recovers on a fresh schedule: the backup or the
	// restarted process does not inherit the failed run's interleavings.
	env.Sched().UnforceAll()
	env.Reroll()

	switch strat {
	case StrategyProcessPairs:
		return app.Restore(snapshot)
	case StrategyProgressiveRetry:
		// Wang93: deliberately reorder events at the failing point so the
		// retry observes a *different* interleaving, and back off longer on
		// each attempt so slow external conditions have time to heal.
		env.Sched().Force(fe.Mechanism, attempt)
		env.Advance(time.Duration(attempt) * m.policy.Takeover)
		return app.Restore(snapshot)
	case StrategyCleanRestart:
		return app.Reset()
	default:
		return errors.New("recovery: unknown strategy")
	}
}
