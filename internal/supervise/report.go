package supervise

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"faultstudy/internal/recovery"
	"faultstudy/internal/stats"
)

// Rungs returns the ladder in escalation order: the recovery rungs without
// RungSubtreeReboot, which is the microreboot rung's later attempts rather
// than a rung of its own, then RungDegraded.
func Rungs() []recovery.Rung {
	return []recovery.Rung{recovery.RungRetry, recovery.RungMicroreboot, recovery.RungRestore, recovery.RungRestart, recovery.RungDegraded}
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
	Escalations map[recovery.Rung]int
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
		Escalations: make(map[recovery.Rung]int),
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
