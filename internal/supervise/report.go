package supervise

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"faultstudy/internal/stats"
)

// Rung is one level of the supervisor's escalation ladder, ordered from
// cheapest to most drastic. The ladder follows the microreboot argument
// (Candea & Fox): try the recovery that preserves the most state and costs
// the least first, and only discard more when the outcome doesn't change.
type Rung int

const (
	// RungRetry re-executes the operation in place (restoring the pre-op
	// checkpoint first if the failure killed the application) with a fresh,
	// deliberately perturbed interleaving — Wang93's induced environment
	// change. Survives the transient class.
	RungRetry Rung = iota + 1
	// RungMicroreboot crash-reboots the component the failing mechanism is
	// attributed to — its dependent subtree on the rung's later attempts —
	// while siblings serve. An application with no attributed component is
	// stopped, reclaimed and restored from the pre-op checkpoint instead: a
	// coarse reboot that preserves all logical state.
	RungMicroreboot
	// RungRestore rolls back to the last epoch checkpoint — older state, on
	// the theory that recently accumulated state is what's poisoned.
	RungRestore
	// RungRestart reinitializes the application to pristine state through
	// its application-specific recovery code, discarding everything.
	RungRestart
	// RungDegraded gives up on full service: writes are shed and the
	// application's degraded mode (when it has one) serves reads only.
	RungDegraded
)

// String names the rung.
func (r Rung) String() string {
	switch r {
	case RungRetry:
		return "retry"
	case RungMicroreboot:
		return "microreboot"
	case RungRestore:
		return "restore"
	case RungRestart:
		return "restart"
	case RungDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("Rung(%d)", int(r))
	}
}

// Rungs returns the ladder in escalation order.
func Rungs() []Rung {
	return []Rung{RungRetry, RungMicroreboot, RungRestore, RungRestart, RungDegraded}
}

// EventKind discriminates supervisor trace events.
type EventKind int

const (
	// EventFailure is an operation failing.
	EventFailure EventKind = iota + 1
	// EventBackoff is the supervisor sleeping before a recovery attempt.
	EventBackoff
	// EventAction is a ladder rung's recovery action being applied.
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

// Event is one step of a supervised run, delivered to Config.Trace.
type Event struct {
	// Kind is the event kind.
	Kind EventKind
	// At is the supervisor clock's reading when the event was emitted — a
	// monotonic virtual timestamp, deterministic for a deterministic clock.
	// Backoff events are stamped at the start of the sleep (At + Delay is the
	// wake time); every other event is stamped when it happens.
	At time.Duration
	// Op is the workload operation involved.
	Op string
	// Mechanism is the fault mechanism involved, when known.
	Mechanism string
	// Rung is the ladder rung in effect.
	Rung Rung
	// Attempt is the episode-wide recovery attempt number.
	Attempt int
	// Delay is the backoff delay (EventBackoff only).
	Delay time.Duration
	// Component names the component a real microreboot targeted (EventAction
	// on the microreboot rung only; empty for process-level actions).
	Component string
	// Err is the error involved, when any.
	Err error
}

// durQuantile computes a duration quantile (rounded to the microsecond, the
// trace schema's resolution) over an episode-duration sample.
func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	sec := stats.Quantile(xs, q)
	return (time.Duration(sec*1e6) * time.Microsecond).Round(time.Microsecond)
}

// MechStats are the per-mechanism supervisor counters.
type MechStats struct {
	// Failures counts every observed failure of the mechanism, initial and
	// retried.
	Failures int
	// Retries counts recovery attempts spent on the mechanism.
	Retries int
	// Recoveries counts retries that succeeded.
	Recoveries int
	// WatchdogTimeouts counts hangs the watchdog converted into failures.
	WatchdogTimeouts int
	// BreakerOpens counts the mechanism's breaker opening.
	BreakerOpens int
	// FastFails counts failures declined by an open breaker.
	FastFails int
	// Escalations counts ladder escalations charged to the mechanism.
	Escalations int
}

// Report is the outcome of one supervised run: the per-mechanism counters
// plus service-level accounting.
type Report struct {
	// Mechanisms maps each fault mechanism observed to its counters.
	Mechanisms map[string]*MechStats
	// OpsTotal, OpsOK, OpsFailed, OpsShed account for every workload op:
	// served (possibly after recovery), abandoned, or shed in degraded mode.
	OpsTotal, OpsOK, OpsFailed, OpsShed int
	// Recovered counts ops that failed at least once and were still served.
	Recovered int
	// FirstFailureOp is the 1-based index of the first failing op (0 when
	// the run was failure-free) — the ops-to-failure measurement.
	FirstFailureOp int
	// Degraded reports whether the run ended in degraded mode.
	Degraded bool
	// DegradedAtOp is the 1-based op index at which degraded mode was
	// entered (0 when it never was).
	DegradedAtOp int
	// Escalations counts how many times each rung was escalated to.
	Escalations map[Rung]int
	// CrashLoopTrips counts retry-budget exhaustions (crash loops detected).
	CrashLoopTrips int
	// BackoffTotal is the cumulative time slept in backoff.
	BackoffTotal time.Duration
	// EpisodeDurations holds one entry per failure episode: the virtual time
	// from the failing operation's dispatch to the supervisor's final
	// decision about it (served, shed, or abandoned). The end stamp is taken
	// at decision time — after every backoff slept and every watchdog charge
	// incurred on the way to the verdict — so an episode that ends mid-ladder
	// still accounts for its final backoff. The percentile lines in String
	// and the MTTR column in the telemetry summary are computed from these.
	EpisodeDurations []time.Duration
	// RepairDurations is the subset of EpisodeDurations whose operation was
	// eventually served — the sample behind mean-time-to-repair.
	RepairDurations []time.Duration
	// Breakers is the final state of every mechanism breaker.
	Breakers []BreakerStatus
}

func newReport() *Report {
	return &Report{
		Mechanisms:  make(map[string]*MechStats),
		Escalations: make(map[Rung]int),
	}
}

// mech returns (allocating if needed) the counters for a mechanism.
func (r *Report) mech(mechanism string) *MechStats {
	ms, ok := r.Mechanisms[mechanism]
	if !ok {
		ms = &MechStats{}
		r.Mechanisms[mechanism] = ms
	}
	return ms
}

// Healthy reports whether the run completed at full service with no op lost.
func (r *Report) Healthy() bool {
	return r.OpsFailed == 0 && r.OpsShed == 0 && !r.Degraded
}

// Served reports whether every op was either served or deliberately shed —
// the availability criterion: nothing was lost, though service may be
// degraded.
func (r *Report) Served() bool { return r.OpsFailed == 0 }

// String renders the per-mechanism table and the service summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Supervisor report: %d ops — %d ok (%d recovered), %d failed, %d shed\n",
		r.OpsTotal, r.OpsOK, r.Recovered, r.OpsFailed, r.OpsShed)
	if r.FirstFailureOp > 0 {
		fmt.Fprintf(&b, "  first failure at op %d\n", r.FirstFailureOp)
	}
	if r.Degraded {
		fmt.Fprintf(&b, "  degraded mode entered at op %d\n", r.DegradedAtOp)
	}
	if r.CrashLoopTrips > 0 {
		fmt.Fprintf(&b, "  crash loops detected (retry budget exhausted): %d\n", r.CrashLoopTrips)
	}
	if r.BackoffTotal > 0 {
		fmt.Fprintf(&b, "  total backoff: %s\n", r.BackoffTotal)
	}
	if len(r.EpisodeDurations) > 0 {
		fmt.Fprintf(&b, "  episodes: %d, duration p50=%s p90=%s max=%s\n",
			len(r.EpisodeDurations),
			durQuantile(r.EpisodeDurations, 0.50), durQuantile(r.EpisodeDurations, 0.90),
			durQuantile(r.EpisodeDurations, 1))
	}
	if len(r.RepairDurations) > 0 {
		fmt.Fprintf(&b, "  MTTR (served episodes): p50=%s p90=%s max=%s\n",
			durQuantile(r.RepairDurations, 0.50), durQuantile(r.RepairDurations, 0.90),
			durQuantile(r.RepairDurations, 1))
	}
	if len(r.Escalations) > 0 {
		parts := make([]string, 0, len(r.Escalations))
		for _, rung := range Rungs() {
			if n := r.Escalations[rung]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", rung, n))
			}
		}
		fmt.Fprintf(&b, "  escalations: %s\n", strings.Join(parts, " "))
	}
	if len(r.Mechanisms) > 0 {
		tbl := &stats.Table{Header: []string{
			"mechanism", "failures", "retries", "recovered", "watchdog", "breaker", "fast-fail", "escalations",
		}}
		keys := make([]string, 0, len(r.Mechanisms))
		for k := range r.Mechanisms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ms := r.Mechanisms[k]
			tbl.Add(k,
				fmt.Sprint(ms.Failures), fmt.Sprint(ms.Retries), fmt.Sprint(ms.Recoveries),
				fmt.Sprint(ms.WatchdogTimeouts), fmt.Sprint(ms.BreakerOpens),
				fmt.Sprint(ms.FastFails), fmt.Sprint(ms.Escalations))
		}
		b.WriteString(tbl.String())
	}
	open := make([]string, 0, len(r.Breakers))
	for _, bs := range r.Breakers {
		if bs.State != BreakerClosed {
			open = append(open, fmt.Sprintf("%s (%s)", bs.Mechanism, bs.State))
		}
	}
	if len(open) > 0 {
		fmt.Fprintf(&b, "  breakers not closed: %s\n", strings.Join(open, ", "))
	}
	return b.String()
}
