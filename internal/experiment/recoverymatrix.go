package experiment

import (
	"fmt"

	"faultstudy/internal/recovery"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// FaultOutcome records whether each strategy survived one corpus fault's
// executable reproduction.
type FaultOutcome struct {
	// FaultID is the corpus fault.
	FaultID string
	// Mechanism is the seeded bug exercised.
	Mechanism string
	// Class is the fault's oracle class.
	Class taxonomy.FaultClass
	// Survived maps each strategy to its outcome.
	Survived map[recovery.Strategy]bool
	// Supervised is the supervision-layer verdict, when AddSupervisedWorkers
	// has been run (VerdictNone otherwise).
	Supervised SupervisorVerdict
}

// Matrix is the full recovery-verification experiment: every corpus fault run
// under every strategy.
type Matrix struct {
	// PerFault holds the individual outcomes in corpus order.
	PerFault []FaultOutcome
	// Strategies lists the strategies run, in presentation order.
	Strategies []recovery.Strategy
}

// Rate returns the survival proportion of one strategy over faults of one
// class (all classes when class is ClassUnknown).
func (m *Matrix) Rate(strat recovery.Strategy, class taxonomy.FaultClass) stats.Proportion {
	p := stats.Proportion{}
	for _, fo := range m.PerFault {
		if class != taxonomy.ClassUnknown && fo.Class != class {
			continue
		}
		p.N++
		if fo.Survived[strat] {
			p.Hits++
		}
	}
	return p
}

// AppRate returns one strategy's survival proportion over one application's
// faults.
func (m *Matrix) AppRate(strat recovery.Strategy, app taxonomy.Application) stats.Proportion {
	prefix := map[taxonomy.Application]string{
		taxonomy.AppApache: "apache/",
		taxonomy.AppGnome:  "gnome/",
		taxonomy.AppMySQL:  "mysql/",
	}[app]
	p := stats.Proportion{}
	for _, fo := range m.PerFault {
		if len(fo.FaultID) < len(prefix) || fo.FaultID[:len(prefix)] != prefix {
			continue
		}
		p.N++
		if fo.Survived[strat] {
			p.Hits++
		}
	}
	return p
}

// String renders the class-by-strategy survival table.
func (m *Matrix) String() string {
	tbl := &stats.Table{Header: []string{"class", "faults"}}
	for _, s := range m.Strategies {
		tbl.Header = append(tbl.Header, s.String())
	}
	supervised := m.HasSupervised()
	if supervised {
		tbl.Header = append(tbl.Header, "supervised")
	}
	for _, c := range taxonomy.Classes() {
		row := []string{c.String(), fmt.Sprint(m.Rate(m.Strategies[0], c).N)}
		for _, s := range m.Strategies {
			r := m.Rate(s, c)
			row = append(row, fmt.Sprintf("%d/%d (%s)", r.Hits, r.N, r.Percent()))
		}
		if supervised {
			r, degraded := m.SupervisedRate(c)
			cell := fmt.Sprintf("%d/%d (%s)", r.Hits, r.N, r.Percent())
			if degraded > 0 {
				cell += fmt.Sprintf(" [%d degr]", degraded)
			}
			row = append(row, cell)
		}
		tbl.Add(row...)
	}
	return "Recovery survival by fault class and strategy:\n" + tbl.String()
}

// RunMatrix executes every corpus fault's scenario under every strategy.
// Each (fault, strategy) run gets its own freshly seeded environment and
// application instance, so runs are independent and deterministic. It is the
// single-worker case of RunMatrixWorkers.
func RunMatrix(policy recovery.Policy, seed int64) (*Matrix, error) {
	return RunMatrixWorkers(policy, seed, 1)
}

// Lee93 holds the §7 reconciliation with Lee & Iyer's Tandem GUARDIAN study.
type Lee93 struct {
	// TandemReported is the process-pair recovery rate Lee & Iyer report
	// (82%).
	TandemReported float64
	// TandemAdjusted is the rate after removing recoveries that relied on
	// backup state divergence, tasks that were never re-executed, and
	// faults that only affected the backup (29%).
	TandemAdjusted float64
	// OurGenericRate is this study's measured process-pair survival rate
	// over all 139 faults.
	OurGenericRate stats.Proportion
	// OurTransientShare is the corpus share of transient faults (the
	// theoretical ceiling for generic recovery under our model).
	OurTransientShare stats.Proportion
	// PerApp is the measured per-application generic survival rate.
	PerApp map[taxonomy.Application]stats.Proportion
}

// ComputeLee93 reconciles the matrix with the published Tandem numbers.
func ComputeLee93(m *Matrix) *Lee93 {
	l := &Lee93{
		TandemReported: 0.82,
		TandemAdjusted: 0.29,
		OurGenericRate: m.Rate(recovery.StrategyProcessPairs, taxonomy.ClassUnknown),
		PerApp:         make(map[taxonomy.Application]stats.Proportion, 3),
	}
	share := stats.Proportion{}
	for _, fo := range m.PerFault {
		share.N++
		if fo.Class == taxonomy.ClassEnvDependentTransient {
			share.Hits++
		}
	}
	l.OurTransientShare = share
	for _, app := range taxonomy.Applications() {
		l.PerApp[app] = m.AppRate(recovery.StrategyProcessPairs, app)
	}
	return l
}

// String renders the reconciliation.
func (l *Lee93) String() string {
	tbl := &stats.Table{Header: []string{"quantity", "value"}}
	tbl.Add("Tandem process pairs, as reported [Lee93]", fmt.Sprintf("%.0f%%", 100*l.TandemReported))
	tbl.Add("  after removing backup-state, unexecuted-task,", "")
	tbl.Add("  and backup-only recoveries (paper §7)", fmt.Sprintf("%.0f%%", 100*l.TandemAdjusted))
	tbl.Add("this study: pure generic recovery, measured", l.OurGenericRate.Percent())
	tbl.Add("this study: transient share of faults", l.OurTransientShare.Percent())
	for _, app := range taxonomy.Applications() {
		tbl.Add("  measured for "+app.String(), l.PerApp[app].Percent())
	}
	return "Reconciliation with Lee & Iyer (Tandem GUARDIAN):\n" + tbl.String()
}
