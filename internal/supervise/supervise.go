// Package supervise is the production supervision policy over the recovery
// executor: a supervisor that keeps a simulated application serving a
// sustained workload while faults fire repeatedly. internal/recovery performs
// each recovery action (recovery.Apply); this package decides which action
// runs, when, and when to stop trying.
//
// Where internal/recovery answers the paper's question — *does a single
// generic recovery survive fault X?* — this package answers the operator's
// question the paper's §8 future work points at: what does a supervisor that
// cannot know the fault class in advance have to do to keep the service up?
// The answer assembled here:
//
//   - a watchdog converts the paper's "application hangs" symptom class into
//     recoverable failures instead of stalled workloads;
//   - crash-loop detection applies exponential backoff with jitter and caps
//     retries with a per-window budget, so a recurring fault cannot consume
//     the machine;
//   - per-mechanism circuit breakers open after repeated recurrences — the
//     operational consequence of the paper's headline result that 72–87% of
//     faults are environment-independent and recur under any
//     state-preserving retry;
//   - an escalation ladder (retry-in-place → microreboot → restore-from-
//     snapshot → clean restart → degraded mode) spends the cheapest, most
//     state-preserving recovery first and discards more only when the
//     outcome doesn't change (after Candea & Fox's microreboots);
//   - a SupervisorReport accounts for every op and every recovery action
//     per fault mechanism.
//
// The policy is one fixed set of constants read on the application's
// virtual clock: like the paper's generic recovery, the supervisor knows
// nothing about the application, so every supervised run applies the same
// policy. Config carries only the jitter seed, the resource-governor switch
// and the trace hook.
package supervise

import (
	"errors"
	"fmt"
	"time"

	"faultstudy/internal/breaker"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
)

// Pseudo-mechanism keys for failures the supervisor itself classifies.
const (
	// MechPanic tags operations that panicked.
	MechPanic = "supervise/panic"
	// MechUnmodeled tags failures outside the seeded-fault model (e.g. an
	// operation broken by state-discarding recovery).
	MechUnmodeled = "supervise/unmodeled"
)

// OpKind partitions workload operations for degraded mode: reads must keep
// being served, writes may be shed.
type OpKind int

const (
	// OpRead is an operation degraded mode must keep serving.
	OpRead OpKind = iota
	// OpWrite is an operation degraded mode may shed.
	OpWrite
)

// String names the kind.
func (k OpKind) String() string {
	if k == OpWrite {
		return "write"
	}
	return "read"
}

// Op is one supervised workload operation.
type Op struct {
	// Name identifies the operation in traces.
	Name string
	// Kind says whether degraded mode may shed it.
	Kind OpKind
	// Do executes the operation.
	Do func() error
}

// Degradable is implemented by applications that support a degraded mode —
// serve static/read traffic while suspending the write paths that need the
// exhausted resource. The supervisor engages it at the last ladder rung.
type Degradable interface {
	// SetDegraded switches degraded mode on or off.
	SetDegraded(bool)
}

// Config holds the three settings a program sets on a Supervisor. The
// supervision policy itself — watchdog charge, backoff shape, retry budget,
// breaker threshold and cooldown, rung attempts, checkpoint cadence — is the
// fixed set of constants below.
type Config struct {
	// Seed seeds the backoff jitter generator.
	Seed int64
	// GrowResources applies the §6.2 resource governor before each recovery
	// action when the failure's cause is a growable environment resource.
	GrowResources bool
	// Trace, when non-nil, receives every supervision event.
	Trace func(recovery.Event)
}

// The supervision policy. Every duration is virtual time on the
// application's environment clock.
const (
	// watchdogTimeout is the time the watchdog charges when an operation
	// reports a hang symptom before declaring it failed: the modeled time
	// the application sat unresponsive.
	watchdogTimeout = 30 * time.Second
	// backoffBase is the first backoff delay; each further attempt in an
	// episode doubles it.
	backoffBase = time.Second
	// backoffCap bounds the exponential backoff.
	backoffCap = 4 * time.Minute
	// backoffJitter is the uniform jitter fraction added to each delay, so
	// synchronized restarts don't stampede.
	backoffJitter = 0.25
	// retryBudget is the maximum recovery attempts per retryWindow before
	// the supervisor declares a crash loop and degrades.
	retryBudget = 12
	// retryWindow is the sliding window retryBudget applies to.
	retryWindow = 30 * time.Minute
	// breakerThreshold is the failed-recovery streak that opens a
	// mechanism's circuit breaker. It is longer than a full ladder walk
	// (rungAttempts on each of the four rungs below degraded), so the
	// degraded rung is reached before the breaker counts out; an exhausted
	// ladder force-opens the breaker regardless.
	breakerThreshold = 10
	// breakerCooldown is how long an open breaker waits before admitting a
	// half-open trial.
	breakerCooldown = 20 * time.Minute
	// rungAttempts is how many recovery attempts each ladder rung gets
	// before escalation. At 2 the cumulative backoff across a full ladder
	// walk spans minutes, long enough for the paper's time-healing
	// transient conditions to clear.
	rungAttempts = 2
	// checkpointEvery is how many served ops pass between epoch snapshots —
	// the restore rung's rollback target.
	checkpointEvery = 16
)

// Supervisor drives one application under sustained workload, recovering
// from failures by policy. It is not safe for concurrent Run calls.
type Supervisor struct {
	cfg      Config
	app      recovery.Application
	env      *simenv.Env // the application's environment, whose clock the policy reads
	backoff  *backoff
	breakers *breaker.Set

	report     *Report
	epoch      []byte // last epoch checkpoint (restore rung target)
	sinceEpoch int
	degraded   bool
	retryLog   []time.Duration // monotonic stamps of recent retries
}

// New builds a supervisor over the application. The application may be
// started or stopped; Run starts it if needed.
func New(app recovery.Application, cfg Config) *Supervisor {
	return &Supervisor{
		cfg:      cfg,
		app:      app,
		env:      app.Env(),
		backoff:  newBackoff(backoffBase, backoffCap, backoffJitter, cfg.Seed),
		breakers: breaker.NewSet(breakerThreshold, breakerCooldown),
	}
}

// Run drives the ops through the application under supervision and returns
// the report. Errors are reserved for harness problems (checkpointing
// failed, the application cannot be brought up at all); every behaviour of
// the supervision policy itself lands in the report.
func (s *Supervisor) Run(ops []Op) (*Report, error) {
	s.report = newReport()
	s.retryLog = nil
	if !s.app.Running() {
		if err := s.app.Start(); err != nil {
			// One second chance: reclaim leftovers and reinitialize.
			if _, rerr := recovery.Apply(s.app, recovery.Action{Rung: recovery.RungRestart}, nil); rerr != nil {
				return s.report, fmt.Errorf("supervise: start %s: %w", s.app.Name(), err)
			}
		}
	}
	defer func() {
		s.report.Breakers = breakerStatuses(s.breakers)
		s.app.Stop()
	}()

	snap, err := s.app.Snapshot()
	if err != nil {
		return s.report, fmt.Errorf("supervise: initial checkpoint: %w", err)
	}
	s.epoch = snap
	s.sinceEpoch = 0
	s.trace(recovery.Event{Kind: recovery.EventCheckpoint})

	for i, op := range ops {
		s.report.OpsTotal++
		if s.degraded && op.Kind == OpWrite {
			s.report.OpsShed++
			s.trace(recovery.Event{Kind: recovery.EventShed, Op: op.Name, Rung: recovery.RungDegraded})
			continue
		}
		preOp, err := s.app.Snapshot()
		if err != nil {
			return s.report, fmt.Errorf("supervise: checkpoint before %q: %w", op.Name, err)
		}
		// The episode clock starts at dispatch: a hang the watchdog has to
		// charge before the failure is even classified belongs to the
		// episode's repair time.
		dispatchedAt := s.env.Monotonic()
		opErr := s.execute(op)
		if opErr == nil {
			s.opServed(op, preOp)
			continue
		}
		if s.report.FirstFailureOp == 0 {
			s.report.FirstFailureOp = i + 1
		}
		res := s.superviseOp(i, op, preOp, opErr)
		// Stamp the episode's end at decision time — the clock reading at
		// which the verdict landed. Reading the clock here (not at the last
		// recovery action) is load-bearing: an episode that ends mid-ladder
		// has already slept its final backoff and charged its watchdog
		// timeouts, and the duration percentiles must include that time.
		s.endEpisode(dispatchedAt, res)
		switch res {
		case opRecovered:
			s.report.OpsOK++
			s.report.Recovered++
			s.sinceEpoch++ // recovered ops advance the epoch cadence too
		case opShed:
			s.report.OpsShed++
		default:
			s.report.OpsFailed++
		}
	}
	return s.report, nil
}

// endEpisode accounts one failure episode's duration, end-stamped at
// decision time.
func (s *Supervisor) endEpisode(dispatchedAt time.Duration, res opResult) {
	dur := s.env.Monotonic() - dispatchedAt
	s.report.EpisodeDurations = append(s.report.EpisodeDurations, dur)
	if res == opRecovered {
		s.report.RepairDurations = append(s.report.RepairDurations, dur)
	}
}

// opServed accounts a cleanly served op and refreshes the epoch checkpoint
// on cadence. preOp — taken immediately before the op — is known good.
func (s *Supervisor) opServed(op Op, preOp []byte) {
	s.report.OpsOK++
	s.sinceEpoch++
	if s.sinceEpoch >= checkpointEvery {
		s.epoch = preOp
		s.sinceEpoch = 0
		s.trace(recovery.Event{Kind: recovery.EventCheckpoint, Op: op.Name})
	}
}

// opResult is the outcome of one failure episode.
type opResult int

const (
	opRecovered opResult = iota + 1
	opFailed
	opShed
)

// superviseOp walks one failing operation through the escalation ladder.
func (s *Supervisor) superviseOp(idx int, op Op, preOp []byte, initial error) opResult {
	mech := s.classify(initial)
	s.noteFailure(op, mech, 0, initial)

	if !s.breakers.Allow(mech, s.env.Monotonic()) {
		s.report.mech(mech).FastFails++
		s.trace(recovery.Event{Kind: recovery.EventFastFail, Op: op.Name, Mechanism: mech, Err: initial})
		recovery.Revive(s.app, preOp)
		return opFailed
	}

	rung := recovery.RungRetry
	attempt := 0   // episode-wide recovery attempts
	attemptAt := 0 // attempts spent on the current rung
	var lastFE *faultinject.FailureError
	lastFE, _ = faultinject.AsFailure(initial)

	for {
		if rung >= recovery.RungDegraded {
			return s.degradeAndFinish(idx, op, preOp, mech)
		}
		if !s.budgetAllows() {
			// Crash loop: the retry budget for this window is gone. Protect
			// the service instead of burning more retries.
			s.report.CrashLoopTrips++
			rung = s.escalateTo(op, mech, recovery.RungDegraded)
			continue
		}
		attempt++
		attemptAt++
		s.noteRetry()
		delay := s.backoff.next(attempt)
		s.report.BackoffTotal += delay
		s.trace(recovery.Event{Kind: recovery.EventBackoff, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Delay: delay})
		s.env.Advance(delay)

		target, err := s.applyRung(rung, preOp, mech, attempt, attemptAt, lastFE)
		s.trace(recovery.Event{Kind: recovery.EventAction, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Component: target, Err: err})
		if err != nil {
			// The recovery action itself failed (e.g. restore ran into the
			// same full disk): escalate immediately.
			rung = s.escalateTo(op, mech, nextRung(rung))
			attemptAt = 0
			continue
		}
		s.report.mech(mech).Retries++

		retryErr := s.execute(op)
		if retryErr == nil {
			s.report.mech(mech).Recoveries++
			s.breakers.Success(mech)
			s.trace(recovery.Event{Kind: recovery.EventRetryOK, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt})
			return opRecovered
		}
		mech = s.classify(retryErr)
		s.noteFailure(op, mech, rung, retryErr)
		lastFE, _ = faultinject.AsFailure(retryErr)

		if s.breakers.Failure(mech, s.env.Monotonic()) {
			s.report.mech(mech).BreakerOpens++
			s.trace(recovery.Event{Kind: recovery.EventBreakerOpen, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Err: retryErr})
			recovery.Revive(s.app, preOp)
			s.trace(recovery.Event{Kind: recovery.EventGiveUp, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Err: retryErr})
			return opFailed
		}
		if attemptAt >= rungAttempts {
			rung = s.escalateTo(op, mech, nextRung(rung))
			attemptAt = 0
		}
	}
}

// degradeAndFinish is the last rung: enter degraded mode, shed the op if it
// is a write, otherwise try it once degraded. A degraded retry that still
// fails proves the fault is not a resource/overload condition — degraded
// mode is reverted, full service resumes, and the mechanism's breaker opens.
func (s *Supervisor) degradeAndFinish(idx int, op Op, preOp []byte, mech string) opResult {
	s.enterDegraded(idx)
	recovery.Revive(s.app, preOp)
	if op.Kind == OpWrite {
		s.trace(recovery.Event{Kind: recovery.EventShed, Op: op.Name, Mechanism: mech, Rung: recovery.RungDegraded})
		return opShed
	}
	s.report.mech(mech).Retries++
	s.noteRetry()
	if err := s.execute(op); err == nil {
		s.report.mech(mech).Recoveries++
		s.breakers.Success(mech)
		s.trace(recovery.Event{Kind: recovery.EventRetryOK, Op: op.Name, Mechanism: mech, Rung: recovery.RungDegraded})
		return opRecovered
	}
	s.exitDegraded()
	if s.breakers.ForceOpen(mech, s.env.Monotonic()) {
		s.report.mech(mech).BreakerOpens++
		s.trace(recovery.Event{Kind: recovery.EventBreakerOpen, Op: op.Name, Mechanism: mech, Rung: recovery.RungDegraded})
	}
	recovery.Revive(s.app, preOp)
	s.trace(recovery.Event{Kind: recovery.EventGiveUp, Op: op.Name, Mechanism: mech, Rung: recovery.RungDegraded})
	return opFailed
}

// applyRung applies one ladder rung's recovery action through
// recovery.Apply and names the component a microreboot targeted. attemptAt
// is the attempt number within the current rung: the microreboot rung
// reboots the dependent subtree after its first attempt. A retry on a
// dead application restores the pre-op checkpoint instead.
func (s *Supervisor) applyRung(rung recovery.Rung, preOp []byte, mech string, attempt, attemptAt int, fe *faultinject.FailureError) (string, error) {
	if s.cfg.GrowResources && fe != nil {
		recovery.GrowResources(s.app.Env(), fe)
	}
	a := recovery.Action{Rung: rung, Mechanism: mech, Attempt: attempt, Snapshot: preOp}
	switch {
	case rung == recovery.RungRetry && !s.app.Running():
		a.Rung = recovery.RungRestore
	case rung == recovery.RungMicroreboot && attemptAt > 1:
		a.Rung = recovery.RungSubtreeReboot
	case rung == recovery.RungRestore:
		a.Snapshot = s.epoch
	}
	return recovery.Apply(s.app, a, nil)
}

func (s *Supervisor) enterDegraded(idx int) {
	if s.degraded {
		return
	}
	s.degraded = true
	s.report.Degraded = true
	if s.report.DegradedAtOp == 0 {
		s.report.DegradedAtOp = idx + 1
	}
	s.report.Escalations[recovery.RungDegraded]++
	if d, ok := s.app.(Degradable); ok {
		d.SetDegraded(true)
	}
	s.trace(recovery.Event{Kind: recovery.EventDegraded, Rung: recovery.RungDegraded})
}

func (s *Supervisor) exitDegraded() {
	if !s.degraded {
		return
	}
	s.degraded = false
	s.report.Degraded = false
	if d, ok := s.app.(Degradable); ok {
		d.SetDegraded(false)
	}
	s.trace(recovery.Event{Kind: recovery.EventDegradedExit})
}

// escalateTo records a ladder escalation and returns the rung escalated to.
func (s *Supervisor) escalateTo(op Op, mech string, to recovery.Rung) recovery.Rung {
	s.report.mech(mech).Escalations++
	if to != recovery.RungDegraded { // degraded entry is counted by enterDegraded
		s.report.Escalations[to]++
	}
	s.trace(recovery.Event{Kind: recovery.EventEscalate, Op: op.Name, Mechanism: mech, Rung: to})
	return to
}

// nextRung is the rung after r in the escalation order of Rungs, which
// steps from microreboot straight to restore.
func nextRung(r recovery.Rung) recovery.Rung {
	rungs := Rungs()
	for i := range rungs[:len(rungs)-1] {
		if rungs[i] == r {
			return rungs[i+1]
		}
	}
	return recovery.RungDegraded
}

// budgetAllows prunes the retry log to the sliding window and reports
// whether another retry fits the budget.
func (s *Supervisor) budgetAllows() bool {
	now := s.env.Monotonic()
	keep := s.retryLog[:0]
	for _, t := range s.retryLog {
		if now-t < retryWindow {
			keep = append(keep, t)
		}
	}
	s.retryLog = keep
	return len(s.retryLog) < retryBudget
}

func (s *Supervisor) noteRetry() {
	s.retryLog = append(s.retryLog, s.env.Monotonic())
}

// noteFailure records one observed failure in the report. rung is the
// ladder rung whose retry just failed, or zero for the initial failure
// that opens the episode.
func (s *Supervisor) noteFailure(op Op, mech string, rung recovery.Rung, err error) {
	s.report.mech(mech).Failures++
	s.trace(recovery.Event{Kind: recovery.EventFailure, Op: op.Name, Mechanism: mech, Rung: rung, Err: err})
}

// classify maps an error to its fault mechanism key.
func (s *Supervisor) classify(err error) string {
	if fe, ok := faultinject.AsFailure(err); ok {
		return fe.Mechanism
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return MechPanic
	}
	return MechUnmodeled
}

// trace emits an event to the configured hook, stamping it with the
// environment's monotonic clock. Nothing is computed when no hook is configured.
func (s *Supervisor) trace(ev recovery.Event) {
	if s.cfg.Trace != nil {
		ev.At = s.env.Monotonic()
		s.cfg.Trace(ev)
	}
}
