package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"faultstudy/internal/classify"
	"faultstudy/internal/corpus"
	"faultstudy/internal/recovery"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// RetryAblation compares plain process pairs against Wang93-style
// progressive retry on the transient faults under a tight retry budget —
// the §6.3 claim that inducing environment change widens the window generic
// recovery can exploit.
type RetryAblation struct {
	// Budget is the per-failure retry budget used.
	Budget int
	// Plain is the process-pairs survival rate over transient faults.
	Plain stats.Proportion
	// Progressive is the progressive-retry survival rate.
	Progressive stats.Proportion
}

// RunRetryAblation runs every transient corpus fault under both strategies
// with MaxRetries=1, across trials differently seeded environments.
func RunRetryAblation(trials int, seed int64) (*RetryAblation, error) {
	mgr := recovery.NewManager(recovery.Policy{MaxRetries: 1, Takeover: 45 * time.Second})
	ab := &RetryAblation{Budget: 1}
	for trial := 0; trial < trials; trial++ {
		trialSeed := seed + int64(trial)*1000
		for _, arm := range []struct {
			strat recovery.Strategy
			p     *stats.Proportion
		}{
			{recovery.StrategyProcessPairs, &ab.Plain},
			{recovery.StrategyProgressiveRetry, &ab.Progressive},
		} {
			p, _, err := survival(mgr, arm.strat, taxonomy.ClassEnvDependentTransient, trialSeed)
			if err != nil {
				return nil, fmt.Errorf("experiment: retry ablation: %w", err)
			}
			arm.p.Hits += p.Hits
			arm.p.N += p.N
		}
	}
	return ab, nil
}

// survival runs every corpus fault of one class under strat, each in a fresh
// application seeded with seed, and returns the survival rate and the IDs of
// the faults that survived, in corpus order.
func survival(mgr *recovery.Manager, strat recovery.Strategy, class taxonomy.FaultClass, seed int64) (stats.Proportion, []string, error) {
	var p stats.Proportion
	var survivors []string
	for _, f := range corpus.All() {
		if f.Class != class {
			continue
		}
		app, sc, err := BuildScenario(f.Mechanism, seed)
		if err != nil {
			return p, nil, err
		}
		out, err := mgr.Run(app, sc, strat)
		if err != nil {
			return p, nil, fmt.Errorf("%s under %s: %w", f.ID, strat, err)
		}
		p.N++
		if out.Survived {
			p.Hits++
			survivors = append(survivors, f.ID)
		}
	}
	return p, survivors, nil
}

// String renders the comparison.
func (a *RetryAblation) String() string {
	return fmt.Sprintf(
		"Transient-fault survival with a %d-retry budget:\n  process pairs       %d/%d (%s)\n  progressive retry   %d/%d (%s)\n",
		a.Budget,
		a.Plain.Hits, a.Plain.N, a.Plain.Percent(),
		a.Progressive.Hits, a.Progressive.N, a.Progressive.Percent())
}

// LeakMechanisms are the resource-accumulation faults rejuvenation targets
// (§6.2): the ones whose trigger is state the application itself hoards.
func LeakMechanisms() []string {
	return []string{
		"httpd/memory-leak-hup",
		"httpd/load-resource-leak",
		"httpd/fd-exhaustion",
		"desktop/sound-socket-leak",
	}
}

// RejuvenationAblation measures whether periodic rejuvenation prevents the
// resource-accumulation failures, per rejuvenation interval.
type RejuvenationAblation struct {
	// Intervals maps each tested rejuvenation interval (in operations) to
	// the survival rate across the leak mechanisms; interval 0 is the
	// no-rejuvenation baseline.
	Intervals map[int]stats.Proportion
}

// RunRejuvenationAblation runs each leak mechanism's scenario with periodic
// rejuvenation at each interval (0 = never).
func RunRejuvenationAblation(intervals []int, seed int64) (*RejuvenationAblation, error) {
	mgr := recovery.NewManager(recovery.Policy{})
	ab := &RejuvenationAblation{Intervals: make(map[int]stats.Proportion, len(intervals))}
	for _, interval := range intervals {
		p := stats.Proportion{}
		for _, mech := range LeakMechanisms() {
			app, sc, err := BuildScenario(mech, seed)
			if err != nil {
				return nil, err
			}
			var survived bool
			if interval <= 0 {
				out, err := mgr.Run(app, sc, recovery.StrategyNone)
				if err != nil {
					return nil, fmt.Errorf("experiment: rejuvenation baseline %s: %w", mech, err)
				}
				survived = out.Survived
			} else {
				out, err := mgr.RunRejuvenating(app, sc, interval)
				if err != nil {
					return nil, fmt.Errorf("experiment: rejuvenation %s @%d: %w", mech, interval, err)
				}
				survived = out.Survived
			}
			p.N++
			if survived {
				p.Hits++
			}
		}
		ab.Intervals[interval] = p
	}
	return ab, nil
}

// String renders the sweep.
func (a *RejuvenationAblation) String() string {
	tbl := &stats.Table{Header: []string{"rejuvenation interval (ops)", "leak faults survived"}}
	keys := make([]int, 0, len(a.Intervals))
	for k := range a.Intervals {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		label := fmt.Sprint(k)
		if k <= 0 {
			label = "never"
		}
		p := a.Intervals[k]
		tbl.Add(label, fmt.Sprintf("%d/%d (%s)", p.Hits, p.N, p.Percent()))
	}
	return "Rejuvenation sweep over resource-accumulation faults:\n" + tbl.String()
}

// SensitivityPoint is one classifier configuration's result in the §5.4
// subjectivity ablation.
type SensitivityPoint struct {
	// Scale is the trigger-weight scale applied.
	Scale float64
	// Accuracy is the class agreement with the oracle.
	Accuracy float64
	// Counts is the predicted per-class tally over all 139 faults.
	Counts map[taxonomy.FaultClass]int
}

// RunClassifierSensitivity sweeps the trigger-weight scale and reports how
// the class boundaries move — quantifying the paper's admission that the
// transient/nontransient split is subjective while the environment-
// independent majority is robust.
func RunClassifierSensitivity(scales []float64) []SensitivityPoint {
	points := make([]SensitivityPoint, 0, len(scales))
	for _, scale := range scales {
		c := classify.New(classify.Options{TriggerWeightScale: scale})
		cm := classify.Evaluate(c, corpus.All())
		points = append(points, SensitivityPoint{
			Scale:    scale,
			Accuracy: cm.Accuracy(),
			Counts:   cm.PredictedCounts(),
		})
	}
	return points
}

// RenderSensitivity renders the sweep.
func RenderSensitivity(points []SensitivityPoint) string {
	tbl := &stats.Table{Header: []string{"weight scale", "accuracy", "EI", "EDN", "EDT"}}
	for _, p := range points {
		tbl.Add(
			fmt.Sprintf("%.2f", p.Scale),
			fmt.Sprintf("%.3f", p.Accuracy),
			fmt.Sprint(p.Counts[taxonomy.ClassEnvIndependent]),
			fmt.Sprint(p.Counts[taxonomy.ClassEnvDependentNonTransient]),
			fmt.Sprint(p.Counts[taxonomy.ClassEnvDependentTransient]))
	}
	return "Classifier sensitivity to trigger-cue weighting:\n" + tbl.String()
}

// ReclaimAblation compares generic recovery with and without operating-system
// resource reclamation of the failed primary — the paper's §5.1/§6
// observation that "the recovery system is likely to kill all processes
// associated with the application" is itself load-bearing for several
// transients.
type ReclaimAblation struct {
	// WithReclaim is transient-fault survival when the failed primary's
	// resources are reclaimed.
	WithReclaim stats.Proportion
	// WithoutReclaim is survival when they are left in place.
	WithoutReclaim stats.Proportion
}

// RunReclaimAblation runs every transient corpus fault under process pairs,
// with reclamation on and off.
func RunReclaimAblation(seed int64) (*ReclaimAblation, error) {
	ab := &ReclaimAblation{}
	var err error
	with := recovery.NewManager(recovery.Policy{})
	if ab.WithReclaim, _, err = survival(with, recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentTransient, seed); err != nil {
		return nil, fmt.Errorf("experiment: reclaim ablation: %w", err)
	}
	without := recovery.NewManager(recovery.Policy{SkipReclaim: true})
	if ab.WithoutReclaim, _, err = survival(without, recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentTransient, seed); err != nil {
		return nil, fmt.Errorf("experiment: reclaim ablation: %w", err)
	}
	return ab, nil
}

// String renders the comparison.
func (a *ReclaimAblation) String() string {
	return fmt.Sprintf(
		"Transient-fault survival under process pairs:\n  with resource reclamation      %d/%d (%s)\n  without resource reclamation   %d/%d (%s)\n",
		a.WithReclaim.Hits, a.WithReclaim.N, a.WithReclaim.Percent(),
		a.WithoutReclaim.Hits, a.WithoutReclaim.N, a.WithoutReclaim.Percent())
}

// MitigationAblation measures the §6.2 resource governor: nontransient-fault
// survival under process pairs with and without automatic resource growth.
type MitigationAblation struct {
	// Plain is EDN survival under unmodified process pairs.
	Plain stats.Proportion
	// Governed is EDN survival with the resource governor enabled.
	Governed stats.Proportion
	// Rescued lists the fault IDs that survived with the governor enabled.
	Rescued []string
}

// RunMitigationAblation runs every nontransient corpus fault under process
// pairs, with the governor off and on.
func RunMitigationAblation(seed int64) (*MitigationAblation, error) {
	ab := &MitigationAblation{}
	var err error
	plain := recovery.NewManager(recovery.Policy{})
	if ab.Plain, _, err = survival(plain, recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentNonTransient, seed); err != nil {
		return nil, fmt.Errorf("experiment: mitigation ablation: %w", err)
	}
	governed := recovery.NewManager(recovery.Policy{GrowResources: true})
	if ab.Governed, ab.Rescued, err = survival(governed, recovery.StrategyProcessPairs, taxonomy.ClassEnvDependentNonTransient, seed); err != nil {
		return nil, fmt.Errorf("experiment: mitigation ablation: %w", err)
	}
	return ab, nil
}

// String renders the comparison.
func (a *MitigationAblation) String() string {
	out := fmt.Sprintf(
		"Nontransient-fault survival under process pairs:\n  without resource governor   %d/%d (%s)\n  with resource governor      %d/%d (%s)\n",
		a.Plain.Hits, a.Plain.N, a.Plain.Percent(),
		a.Governed.Hits, a.Governed.N, a.Governed.Percent())
	if len(a.Rescued) > 0 {
		out += "  rescued: " + strings.Join(a.Rescued, ", ") + "\n"
	}
	return out
}
