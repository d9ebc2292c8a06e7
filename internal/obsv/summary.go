package obsv

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"faultstudy/internal/recovery"
	"faultstudy/internal/stats"
)

// ClassSummary aggregates every episode of one environment-dependence class
// — the per-class telemetry row the paper's headline EI/EDN/EDT split can be
// read off directly.
type ClassSummary struct {
	// Class is the class short name (EI, EDN, EDT) or "?" for episodes whose
	// mechanism has no class (supervisor pseudo-mechanisms).
	Class string
	// Episodes is the number of fault episodes observed.
	Episodes int
	// Recovered, Degraded, Shed, Lost, FastFailed partition the episodes by
	// outcome.
	Recovered, Degraded, Shed, Lost, FastFailed int
	// Retries is the total number of recovery attempts spent.
	Retries int
	// RetriesPerRecovery is the mean retries among episodes that were served
	// (recovered or served-degraded).
	RetriesPerRecovery float64
	// MTTRMean, MTTRP50, MTTRP95, MTTRMax summarize time-to-repair over the
	// served episodes, on the virtual clock.
	MTTRMean, MTTRP50, MTTRP95, MTTRMax time.Duration
	// Rungs is the final-rung distribution over all episodes.
	Rungs map[string]int
	// RungAttempts counts recovery actions applied at each ladder rung across
	// the class's episodes; RungSuccesses counts, per rung, the retries that
	// then served the failed operation. Together they show where on the
	// ladder a class's recovery effort goes and where it pays off.
	RungAttempts, RungSuccesses map[string]int
	// Planned is the statically planned-rung distribution over episodes that
	// carry a recovery-scope prediction (the SCOPE experiment); empty
	// elsewhere. Read against Rungs it shows where the static plan and the
	// dynamic outcome diverge.
	Planned map[string]int
}

// served counts episodes that ended with the op served.
func (c *ClassSummary) served() int { return c.Recovered + c.Degraded }

// classOrder fixes the presentation order of summary rows.
func classOrder(class string) int {
	switch class {
	case "EI":
		return 0
	case "EDN":
		return 1
	case "EDT":
		return 2
	default:
		return 3
	}
}

// Summarize folds episodes into per-class summaries, ordered EI, EDN, EDT,
// then any remaining classes alphabetically.
func Summarize(episodes []*Episode) []*ClassSummary {
	byClass := make(map[string]*ClassSummary)
	repair := make(map[string][]float64) // seconds, served episodes only
	for _, e := range episodes {
		cs, ok := byClass[e.Class]
		if !ok {
			cs = &ClassSummary{Class: e.Class, Rungs: make(map[string]int),
				RungAttempts: make(map[string]int), RungSuccesses: make(map[string]int),
				Planned: make(map[string]int)}
			byClass[e.Class] = cs
		}
		cs.Episodes++
		cs.Retries += e.Retries
		if e.FinalRung != "" {
			cs.Rungs[e.FinalRung]++
		}
		if e.PlannedRung != "" {
			cs.Planned[e.PlannedRung]++
		}
		for _, sp := range e.Spans {
			if sp.Rung == "" {
				continue
			}
			switch {
			case sp.Kind == SpanAction:
				cs.RungAttempts[sp.Rung]++
			case sp.Kind == SpanRetry && sp.Outcome == "ok":
				cs.RungSuccesses[sp.Rung]++
			}
		}
		switch e.Outcome {
		case OutcomeRecovered:
			cs.Recovered++
		case OutcomeDegraded:
			cs.Degraded++
		case OutcomeShed:
			cs.Shed++
		case OutcomeFastFail:
			cs.FastFailed++
		default:
			cs.Lost++
		}
		if e.Outcome == OutcomeRecovered || e.Outcome == OutcomeDegraded {
			repair[e.Class] = append(repair[e.Class], e.Duration().Seconds())
		}
	}
	out := make([]*ClassSummary, 0, len(byClass))
	for class, cs := range byClass {
		if xs := repair[class]; len(xs) > 0 {
			sum, retries := 0.0, 0
			for _, x := range xs {
				sum += x
			}
			for _, e := range episodes {
				if e.Class == class && (e.Outcome == OutcomeRecovered || e.Outcome == OutcomeDegraded) {
					retries += e.Retries
				}
			}
			cs.MTTRMean = secDur(sum / float64(len(xs)))
			cs.MTTRP50 = secDur(stats.Quantile(xs, 0.50))
			cs.MTTRP95 = secDur(stats.Quantile(xs, 0.95))
			cs.MTTRMax = secDur(stats.Quantile(xs, 1))
			cs.RetriesPerRecovery = float64(retries) / float64(len(xs))
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, oj := classOrder(out[i].Class), classOrder(out[j].Class)
		if oi != oj {
			return oi < oj
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// secDur converts float seconds to a duration rounded to the microsecond —
// the schema's resolution, so summaries stay byte-stable.
func secDur(s float64) time.Duration {
	return (time.Duration(s*1e6) * time.Microsecond).Round(time.Microsecond)
}

// ladderOrder returns the keys of a per-rung count map for rendering: the
// rungs from retry up with a positive count in recovery.Rung order, then
// every other key (strategy names, zero counts) alphabetically. "none" is
// one of those others: it names the bare no-recovery strategy.
func ladderOrder(counts map[string]int) []string {
	var keys, rest []string
	seen := make(map[string]bool)
	for r := recovery.RungRetry; r <= recovery.RungDegraded; r++ {
		if name := r.String(); counts[name] > 0 {
			keys = append(keys, name)
			seen[name] = true
		}
	}
	for k := range counts {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(keys, rest...)
}

// renderRungs renders a final-rung distribution compactly in ladder order.
func renderRungs(rungs map[string]int) string {
	if len(rungs) == 0 {
		return "-"
	}
	var parts []string
	for _, r := range ladderOrder(rungs) {
		parts = append(parts, fmt.Sprintf("%s=%d", r, rungs[r]))
	}
	return strings.Join(parts, " ")
}

// renderRungRatio renders per-rung attempts/successes compactly in ladder
// order ("retry=3/1" is 3 attempts, 1 of which served the op).
func renderRungRatio(attempts, successes map[string]int) string {
	if len(attempts) == 0 {
		return "-"
	}
	var parts []string
	for _, r := range ladderOrder(attempts) {
		parts = append(parts, fmt.Sprintf("%s=%d/%d", r, attempts[r], successes[r]))
	}
	return strings.Join(parts, " ")
}

// RenderSummary renders the per-class telemetry table: episode counts,
// served/degraded/lost fractions, MTTR, retries-per-recovery, the per-rung
// attempt/success counts, and the final-rung distribution.
func RenderSummary(sums []*ClassSummary) string {
	tbl := &stats.Table{Header: []string{
		"class", "episodes", "served", "degraded", "shed", "lost", "fast-fail",
		"MTTR(mean)", "MTTR(p95)", "retries/recovery", "rung attempts/ok", "planned rungs", "final rungs",
	}}
	for _, cs := range sums {
		frac := func(n int) string {
			if cs.Episodes == 0 {
				return "0"
			}
			return fmt.Sprintf("%d (%s)", n, stats.Proportion{Hits: n, N: cs.Episodes}.Percent())
		}
		mttrMean, mttrP95, rpr := "-", "-", "-"
		if cs.served() > 0 {
			mttrMean = cs.MTTRMean.String()
			mttrP95 = cs.MTTRP95.String()
			rpr = fmt.Sprintf("%.1f", cs.RetriesPerRecovery)
		}
		tbl.Add(cs.Class, fmt.Sprint(cs.Episodes),
			frac(cs.served()), frac(cs.Degraded), frac(cs.Shed), frac(cs.Lost), frac(cs.FastFailed),
			mttrMean, mttrP95, rpr,
			renderRungRatio(cs.RungAttempts, cs.RungSuccesses),
			renderRungs(cs.Planned), renderRungs(cs.Rungs))
	}
	return "Recovery telemetry by fault class:\n" + tbl.String()
}
