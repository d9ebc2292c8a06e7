// Package recovery performs recovery actions and runs the recovery systems
// the paper reasons about (§2, §6) against the seeded faults — the
// end-to-end verification the authors proposed as future work (§5.4, §8).
//
// Apply is the one executor: it performs a single Action (restore a
// checkpoint, restart pristine, or microreboot a component), charges its
// outage through a hook, and perturbs the schedule for the retry. Revive
// brings an application back up after an abandoned episode. Deciding which
// action to take is left to the caller: the strategies below, the
// supervisor's escalation ladder (internal/supervise) and the experiment
// sweeps. The paper's generic systems differ only in their action: process
// pairs restores the checkpoint, progressive retry also forces a different
// interleaving (Wang93), and clean restart reinitializes.
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
	// Snapshot captures the complete logical application state. The bytes
	// are opaque and in-memory only: only the same application's Restore
	// reads them, and no report, trace, metric, warehouse record or
	// simulated-disk file holds them, so their encoding (internal/snapwire
	// for the lab's apps) may change between builds.
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

// takeover is the virtual time the environment advances per recovery:
// failure detection plus backup takeover.
const takeover = 45 * time.Second

// Policy tunes a recovery run.
type Policy struct {
	// MaxRetries is how many times a failing operation is retried after
	// recovery before the run is declared lost (0 means 3).
	MaxRetries int
	// SkipReclaim leaves the failed primary's operating-system resources
	// (hung children, held ports, open descriptors) in place instead of
	// reclaiming them — the ablation for the paper's observation that "the
	// recovery system is likely to kill all processes associated with the
	// application". With reclaim off, the process-table and port-holding
	// transients stop being survivable. It reaches the executor as
	// Action.KeepResources.
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
	// final verdict. For logging, telemetry and the recoverylab CLI.
	Trace func(Event)
}

// EventKind discriminates recovery trace events.
type EventKind int

const (
	// EventFailure is an operation failing: the failure that opens an
	// episode, or a retry that did not serve the operation.
	EventFailure EventKind = iota + 1
	// EventBackoff is the supervisor sleeping before a recovery attempt.
	EventBackoff
	// EventAction is a recovery action being applied: a ladder rung's, or
	// a strategy's failover or restart.
	EventAction
	// EventRetryOK is a retried operation succeeding.
	EventRetryOK
	// EventEscalate is the ladder moving up a rung.
	EventEscalate
	// EventBreakerOpen is a mechanism's circuit breaker opening.
	EventBreakerOpen
	// EventFastFail is a failure hitting an already-open breaker: no retries
	// are spent.
	EventFastFail
	// EventWatchdog is the watchdog declaring an operation hung.
	EventWatchdog
	// EventDegraded is the supervisor entering degraded mode.
	EventDegraded
	// EventDegradedExit is the supervisor reverting degraded mode because it
	// did not change the outcome.
	EventDegradedExit
	// EventShed is a write operation shed in degraded mode.
	EventShed
	// EventGiveUp is an operation abandoned.
	EventGiveUp
	// EventCheckpoint is an application state snapshot being taken: the
	// initial checkpoint at Run start and each epoch refresh thereafter.
	EventCheckpoint
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventFailure:
		return "failure"
	case EventBackoff:
		return "backoff"
	case EventAction:
		return "action"
	case EventRetryOK:
		return "retry-ok"
	case EventEscalate:
		return "escalate"
	case EventBreakerOpen:
		return "breaker-open"
	case EventFastFail:
		return "fast-fail"
	case EventWatchdog:
		return "watchdog"
	case EventDegraded:
		return "degraded"
	case EventDegradedExit:
		return "degraded-exit"
	case EventShed:
		return "shed"
	case EventGiveUp:
		return "gave-up"
	case EventCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one step of a recovery run: a strategy's run under Manager
// (Policy.Trace) or a supervised run (internal/supervise's Config.Trace).
type Event struct {
	// Kind is the event kind.
	Kind EventKind
	// At is the environment's monotonic virtual clock reading when the event
	// was emitted — deterministic for a seeded environment, so traces built
	// from these events are byte-stable across runs. Backoff events are
	// stamped at the start of the sleep (At + Delay is the wake time); every
	// other event is stamped when it happens.
	At time.Duration
	// Op is the workload operation involved.
	Op string
	// Mechanism is the fault mechanism involved, when known.
	Mechanism string
	// Strategy is the strategy whose run emitted the event; Manager always
	// sets it and the supervisor never does.
	Strategy Strategy
	// Rung is the supervisor's ladder rung in effect.
	Rung Rung
	// Attempt is the episode-wide recovery attempt number: 0 for the
	// failure that opens an episode, and also 0 on the supervisor's
	// failure events, while a strategy's failed retry carries its attempt.
	Attempt int
	// Delay is the backoff delay (EventBackoff only).
	Delay time.Duration
	// Component names the component a real microreboot targeted (EventAction
	// on the microreboot rung only; empty for process-level actions).
	Component string
	// Err is the error involved, when any.
	Err error
}

func (p Policy) withDefaults() Policy {
	// Negative values are configuration mistakes, not requests for "retry
	// minus-one times": clamp them to the defaults alongside the zero value.
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
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
		m.trace(env, strat, Event{Kind: EventFailure, Op: op.Name, Mechanism: fe.Mechanism, Err: fe})
		if strat == StrategyNone {
			out.Err = fe
			return out, nil
		}

		recovered := false
		for attempt := 1; attempt <= m.policy.MaxRetries; attempt++ {
			out.Attempts++
			m.trace(env, strat, Event{Kind: EventAction, Op: op.Name, Mechanism: fe.Mechanism, Attempt: attempt})
			// The governor grows the exhausted resource just before the
			// action. The whole-process outage is the takeover; progressive
			// retry also waits attempt takeovers more, so slow external
			// conditions have time to heal.
			if m.policy.GrowResources {
				GrowResources(env, fe)
			}
			a := m.action(strat, snapshot, fe, attempt)
			if _, rerr := Apply(app, a, func(string, time.Duration) {
				env.Advance(time.Duration(1+a.Attempt) * takeover)
			}); rerr != nil {
				out.Err = fmt.Errorf("recovery failed on attempt %d: %w", attempt, rerr)
				return out, nil
			}
			retryErr := op.Do()
			if retryErr == nil {
				recovered = true
				out.Recoveries++
				m.trace(env, strat, Event{Kind: EventRetryOK, Op: op.Name, Mechanism: fe.Mechanism, Attempt: attempt})
				break
			}
			rfe, ok := faultinject.AsFailure(retryErr)
			mech := ""
			if ok {
				mech = rfe.Mechanism
			}
			m.trace(env, strat, Event{Kind: EventFailure, Op: op.Name, Mechanism: mech, Attempt: attempt, Err: retryErr})
			if ok {
				fe = rfe
				continue
			}
			// The strategy broke the application for this workload (e.g. a
			// state-discarding restart lost the tables an INSERT needs).
			out.Err = fmt.Errorf("retry of %q failed outside the fault model: %w", op.Name, retryErr)
			return out, nil
		}
		if !recovered {
			m.trace(env, strat, Event{Kind: EventGiveUp, Op: op.Name, Mechanism: fe.Mechanism, Attempt: m.policy.MaxRetries, Err: fe})
			out.Err = fe
			return out, nil
		}
	}
	out.Survived = true
	return out, nil
}

// trace emits an event to the policy's trace hook, when one is set, stamped
// with the environment's monotonic clock and the run's strategy. Nothing is
// computed when tracing is disabled.
func (m *Manager) trace(env *simenv.Env, strat Strategy, ev Event) {
	if m.policy.Trace != nil {
		ev.At, ev.Strategy = env.Monotonic(), strat
		m.policy.Trace(ev)
	}
}

// action is the recovery action a strategy takes after a failure at
// attempt. Process pairs fails over to the checkpoint; progressive retry
// does too and also forces the attempt's interleaving at the failing point
// (Wang93); clean restart reinitializes the application.
func (m *Manager) action(strat Strategy, snapshot []byte, fe *faultinject.FailureError, attempt int) Action {
	a := Action{Mechanism: fe.Mechanism, Snapshot: snapshot, KeepResources: m.policy.SkipReclaim}
	switch strat {
	case StrategyProcessPairs:
		a.Rung = RungRestore
	case StrategyProgressiveRetry:
		a.Rung, a.Attempt = RungRestore, attempt
	case StrategyCleanRestart:
		a.Rung = RungRestart
	}
	return a
}
