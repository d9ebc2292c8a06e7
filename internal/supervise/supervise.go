// Package supervise is the production supervision layer over the paper's
// one-shot recovery strategies: a supervisor that keeps a simulated
// application serving a sustained workload while faults fire repeatedly.
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
package supervise

import (
	"errors"
	"fmt"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
)

// Pseudo-mechanism keys for failures the supervisor itself classifies.
const (
	// MechWatchdog tags operations abandoned by the wall-clock watchdog.
	MechWatchdog = "supervise/watchdog"
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

// Config tunes a Supervisor. The zero value gets production-shaped defaults.
type Config struct {
	// Clock supplies time; nil means an EnvClock over the application's
	// environment.
	Clock Clock
	// Seed seeds the backoff jitter generator.
	Seed int64
	// WatchdogTimeout is the virtual time the watchdog charges when an
	// operation reports a hang symptom before declaring it failed
	// (0 means 30s).
	WatchdogTimeout time.Duration
	// WallTimeout, when positive, bounds the real time an operation may
	// block before the watchdog abandons it. Zero disables the wall-clock
	// watchdog (simulated operations return promptly).
	WallTimeout time.Duration
	// BackoffBase is the first backoff delay (0 means 1s).
	BackoffBase time.Duration
	// BackoffCap bounds the exponential backoff (0 means 4m).
	BackoffCap time.Duration
	// BackoffJitter is the uniform jitter fraction added to each delay
	// (negative means none; 0 means the default 0.25).
	BackoffJitter float64
	// RetryBudget is the maximum recovery attempts per RetryWindow before
	// the supervisor declares a crash loop and degrades (0 means 12).
	RetryBudget int
	// RetryWindow is the sliding window the budget applies to (0 means 30m).
	RetryWindow time.Duration
	// BreakerThreshold is the failed-recovery streak that opens a
	// mechanism's circuit breaker (0 means 10 — longer than a full ladder
	// walk, so the degraded rung is reached before the breaker counts out;
	// an exhausted ladder force-opens the breaker regardless).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open trial (0 means 20m).
	BreakerCooldown time.Duration
	// RungAttempts is how many recovery attempts each ladder rung gets
	// before escalation (0 means 2 — the cumulative backoff across a full
	// ladder walk then spans minutes, long enough for the paper's
	// time-healing transient conditions to clear).
	RungAttempts int
	// CheckpointEvery is how many served ops pass between epoch snapshots —
	// the restore rung's rollback target (0 means 16).
	CheckpointEvery int
	// GrowResources applies the §6.2 resource governor before each recovery
	// action when the failure's cause is a growable environment resource.
	GrowResources bool
	// Trace, when non-nil, receives every supervision event.
	Trace func(Event)
}

func (c Config) withDefaults() Config {
	if c.WatchdogTimeout <= 0 {
		c.WatchdogTimeout = 30 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = time.Second
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 4 * time.Minute
	}
	if c.BackoffJitter == 0 {
		c.BackoffJitter = 0.25
	} else if c.BackoffJitter < 0 {
		c.BackoffJitter = 0
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 12
	}
	if c.RetryWindow <= 0 {
		c.RetryWindow = 30 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 10
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 20 * time.Minute
	}
	if c.RungAttempts <= 0 {
		c.RungAttempts = 2
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
	return c
}

// Supervisor drives one application under sustained workload, recovering
// from failures by policy. It is not safe for concurrent Run calls.
type Supervisor struct {
	cfg      Config
	app      recovery.Application
	clock    Clock
	backoff  *backoff
	breakers *breakerSet

	report     *Report
	epoch      []byte // last epoch checkpoint (restore rung target)
	sinceEpoch int
	degraded   bool
	retryLog   []time.Duration // monotonic stamps of recent retries
}

// New builds a supervisor over the application. The application may be
// started or stopped; Run starts it if needed.
func New(app recovery.Application, cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = EnvClock{Env: app.Env()}
	}
	return &Supervisor{
		cfg:      cfg,
		app:      app,
		clock:    clock,
		backoff:  newBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.BackoffJitter, cfg.Seed),
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
}

// Report returns the accumulated report (valid during and after Run).
func (s *Supervisor) Report() *Report { return s.report }

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
			s.app.Env().ReclaimOwner(s.app.Name())
			if rerr := s.app.Reset(); rerr != nil {
				return s.report, fmt.Errorf("supervise: start %s: %w", s.app.Name(), err)
			}
		}
	}
	defer func() {
		s.report.Breakers = s.breakers.states()
		s.app.Stop()
	}()

	snap, err := s.app.Snapshot()
	if err != nil {
		return s.report, fmt.Errorf("supervise: initial checkpoint: %w", err)
	}
	s.epoch = snap
	s.sinceEpoch = 0
	s.trace(Event{Kind: EventCheckpoint})

	for i, op := range ops {
		s.report.OpsTotal++
		if s.degraded && op.Kind == OpWrite {
			s.report.OpsShed++
			s.trace(Event{Kind: EventShed, Op: op.Name, Rung: RungDegraded})
			continue
		}
		preOp, err := s.app.Snapshot()
		if err != nil {
			return s.report, fmt.Errorf("supervise: checkpoint before %q: %w", op.Name, err)
		}
		// The episode clock starts at dispatch: a hang the watchdog has to
		// charge before the failure is even classified belongs to the
		// episode's repair time.
		dispatchedAt := s.clock.Now()
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
	dur := s.clock.Now() - dispatchedAt
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
	if s.sinceEpoch >= s.cfg.CheckpointEvery {
		s.epoch = preOp
		s.sinceEpoch = 0
		s.trace(Event{Kind: EventCheckpoint, Op: op.Name})
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

	if !s.breakers.allow(mech, s.clock.Now()) {
		s.report.mech(mech).FastFails++
		s.trace(Event{Kind: EventFastFail, Op: op.Name, Mechanism: mech, Err: initial})
		_ = Revive(s.app, preOp)
		return opFailed
	}

	rung := RungRetry
	attempt := 0   // episode-wide recovery attempts
	attemptAt := 0 // attempts spent on the current rung
	var lastFE *faultinject.FailureError
	lastFE, _ = faultinject.AsFailure(initial)

	for {
		if rung >= RungDegraded {
			return s.degradeAndFinish(idx, op, preOp, mech)
		}
		if !s.budgetAllows() {
			// Crash loop: the retry budget for this window is gone. Protect
			// the service instead of burning more retries.
			s.report.CrashLoopTrips++
			s.escalateTo(op, mech, RungDegraded)
			rung = RungDegraded
			continue
		}
		attempt++
		attemptAt++
		s.noteRetry()
		delay := s.backoff.next(attempt)
		s.report.BackoffTotal += delay
		s.trace(Event{Kind: EventBackoff, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Delay: delay})
		s.clock.Sleep(delay)

		target, err := s.applyRung(rung, preOp, mech, attempt, attemptAt, lastFE)
		s.trace(Event{Kind: EventAction, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Component: target, Err: err})
		if err != nil {
			// The recovery action itself failed (e.g. restore ran into the
			// same full disk): escalate immediately.
			s.escalateTo(op, mech, rung+1)
			rung++
			attemptAt = 0
			continue
		}
		s.report.mech(mech).Retries++

		retryErr := s.execute(op)
		if retryErr == nil {
			s.report.mech(mech).Recoveries++
			s.breakers.success(mech)
			s.trace(Event{Kind: EventRetryOK, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt})
			return opRecovered
		}
		mech = s.classify(retryErr)
		s.noteFailure(op, mech, rung, retryErr)
		lastFE, _ = faultinject.AsFailure(retryErr)

		if s.breakers.failure(mech, s.clock.Now()) {
			s.report.mech(mech).BreakerOpens++
			s.trace(Event{Kind: EventBreakerOpen, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Err: retryErr})
			_ = Revive(s.app, preOp)
			s.trace(Event{Kind: EventGiveUp, Op: op.Name, Mechanism: mech, Rung: rung, Attempt: attempt, Err: retryErr})
			return opFailed
		}
		if attemptAt >= s.cfg.RungAttempts {
			s.escalateTo(op, mech, rung+1)
			rung++
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
	_ = Revive(s.app, preOp)
	if op.Kind == OpWrite {
		s.trace(Event{Kind: EventShed, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
		return opShed
	}
	s.report.mech(mech).Retries++
	s.noteRetry()
	if err := s.execute(op); err == nil {
		s.report.mech(mech).Recoveries++
		s.breakers.success(mech)
		s.trace(Event{Kind: EventRetryOK, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
		return opRecovered
	}
	s.exitDegraded()
	if s.breakers.forceOpen(mech, s.clock.Now()) {
		s.report.mech(mech).BreakerOpens++
		s.trace(Event{Kind: EventBreakerOpen, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
	}
	_ = Revive(s.app, preOp)
	s.trace(Event{Kind: EventGiveUp, Op: op.Name, Mechanism: mech, Rung: RungDegraded})
	return opFailed
}

// applyRung applies one ladder rung's recovery action through Apply and
// names the component a microreboot targeted. attemptAt is the attempt
// number within the current rung: the microreboot rung widens to the
// dependent subtree after its first attempt. A retry on a dead application
// restores the pre-op checkpoint instead.
func (s *Supervisor) applyRung(rung Rung, preOp []byte, mech string, attempt, attemptAt int, fe *faultinject.FailureError) (string, error) {
	if s.cfg.GrowResources && fe != nil {
		recovery.GrowResources(s.app.Env(), fe)
	}
	a := Action{Rung: rung, Mechanism: mech, Attempt: attempt, Widen: attemptAt > 1, Snapshot: preOp}
	switch {
	case rung == RungRetry && !s.app.Running():
		a.Rung = RungRestore
	case rung == RungRestore:
		a.Snapshot = s.epoch
	}
	return Apply(s.app, a, nil)
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
	s.report.Escalations[RungDegraded]++
	if d, ok := s.app.(Degradable); ok {
		d.SetDegraded(true)
	}
	s.trace(Event{Kind: EventDegraded, Rung: RungDegraded})
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
	s.trace(Event{Kind: EventDegradedExit})
}

// escalateTo records a ladder escalation.
func (s *Supervisor) escalateTo(op Op, mech string, to Rung) {
	if to > RungDegraded {
		to = RungDegraded
	}
	s.report.mech(mech).Escalations++
	if to != RungDegraded { // degraded entry is counted by enterDegraded
		s.report.Escalations[to]++
	}
	s.trace(Event{Kind: EventEscalate, Op: op.Name, Mechanism: mech, Rung: to})
}

// budgetAllows prunes the retry log to the sliding window and reports
// whether another retry fits the budget.
func (s *Supervisor) budgetAllows() bool {
	now := s.clock.Now()
	keep := s.retryLog[:0]
	for _, t := range s.retryLog {
		if now-t < s.cfg.RetryWindow {
			keep = append(keep, t)
		}
	}
	s.retryLog = keep
	return len(s.retryLog) < s.cfg.RetryBudget
}

func (s *Supervisor) noteRetry() {
	s.retryLog = append(s.retryLog, s.clock.Now())
}

// noteFailure records one observed failure in the report. rung is the
// ladder rung whose retry just failed, or zero for the initial failure
// that opens the episode.
func (s *Supervisor) noteFailure(op Op, mech string, rung Rung, err error) {
	s.report.mech(mech).Failures++
	s.trace(Event{Kind: EventFailure, Op: op.Name, Mechanism: mech, Rung: rung, Err: err})
}

// classify maps an error to its fault mechanism key.
func (s *Supervisor) classify(err error) string {
	if fe, ok := faultinject.AsFailure(err); ok {
		return fe.Mechanism
	}
	var we *WatchdogError
	if errors.As(err, &we) {
		return MechWatchdog
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return MechPanic
	}
	return MechUnmodeled
}

// trace emits an event to the configured hook, stamping it with the
// supervisor clock. Nothing is computed when no hook is configured.
func (s *Supervisor) trace(ev Event) {
	if s.cfg.Trace != nil {
		ev.At = s.clock.Now()
		s.cfg.Trace(ev)
	}
}
