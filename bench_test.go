// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus the recovery experiments and ablations (see DESIGN.md's experiment
// index). Each benchmark recomputes its artifact per iteration and reports
// the headline values as custom metrics, so `go test -bench=.` doubles as a
// results run:
//
//	T1-T3   BenchmarkTable{1Apache,2Gnome,3MySQL}      — classification tables
//	PIPE    BenchmarkPipelineStudy                     — full mine->classify run
//	F1-F3   BenchmarkFigure{1Apache...,2Gnome...,3...} — distribution figures
//	AGG     BenchmarkAggregateDiscussion               — §5.4 totals
//	REC     BenchmarkRecoveryMatrix                    — generic-recovery verification
//	LEE     BenchmarkLee93Comparison                   — §7 reconciliation
//	ABL-*   BenchmarkAblation*                         — design-choice ablations
package faultstudy_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"faultstudy"
	"faultstudy/internal/experiment"
	"faultstudy/internal/taxonomy"
)

func benchTable(b *testing.B, app faultstudy.Application) {
	b.Helper()
	var res *faultstudy.TableResult
	for i := 0; i < b.N; i++ {
		res = faultstudy.Table(app)
	}
	if !res.Matches() {
		b.Fatalf("table diverges from the paper:\n%s", res)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	b.ReportMetric(float64(res.Counts[faultstudy.ClassEnvIndependent]), "EI")
	b.ReportMetric(float64(res.Counts[faultstudy.ClassEnvDependentNonTransient]), "EDN")
	b.ReportMetric(float64(res.Counts[faultstudy.ClassEnvDependentTransient]), "EDT")
	b.ReportMetric(float64(total), "faults")
}

// BenchmarkTable1Apache regenerates Table 1 (36/7/7 over 50 Apache faults).
func BenchmarkTable1Apache(b *testing.B) { benchTable(b, faultstudy.AppApache) }

// BenchmarkTable2Gnome regenerates Table 2 (39/3/3 over 45 GNOME faults).
func BenchmarkTable2Gnome(b *testing.B) { benchTable(b, faultstudy.AppGnome) }

// BenchmarkTable3MySQL regenerates Table 3 (38/4/2 over 44 MySQL faults).
func BenchmarkTable3MySQL(b *testing.B) { benchTable(b, faultstudy.AppMySQL) }

// BenchmarkPipelineStudy runs the full methodology — crawl the three
// simulated trackers over HTTP, parse the native formats, filter, fold
// duplicates, classify — and checks the tables come out exactly.
func BenchmarkPipelineStudy(b *testing.B) {
	cfg := faultstudy.SiteConfig{Seed: 1999}
	apache := httptest.NewServer(faultstudy.NewApacheTrackerSite(cfg))
	defer apache.Close()
	gnome := httptest.NewServer(faultstudy.NewGnomeTrackerSite(cfg))
	defer gnome.Close()
	mysql := httptest.NewServer(faultstudy.NewMySQLArchiveSite(cfg))
	defer mysql.Close()
	src := faultstudy.StudySources{ApacheBase: apache.URL, GnomeBase: gnome.URL, MySQLBase: mysql.URL}

	b.ResetTimer()
	var res *faultstudy.StudyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = faultstudy.RunStudy(context.Background(), src, faultstudy.StudyOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	_, total := res.Totals()
	if total != 139 {
		b.Fatalf("pipeline found %d unique faults, want 139", total)
	}
	raw := 0
	for _, r := range res.Apps {
		raw += r.Raw
	}
	b.ReportMetric(float64(raw), "raw_reports")
	b.ReportMetric(float64(total), "unique_faults")
}

func benchFigure(b *testing.B, build func() *faultstudy.FigureSeries, wantTotal int) {
	b.Helper()
	var fig *faultstudy.FigureSeries
	for i := 0; i < b.N; i++ {
		fig = build()
	}
	sum := 0
	for _, n := range fig.Totals() {
		sum += n
	}
	if sum != wantTotal {
		b.Fatalf("figure covers %d faults, want %d", sum, wantTotal)
	}
	totals := fig.Totals()
	last := len(totals) - 1
	b.ReportMetric(float64(len(fig.Buckets)), "buckets")
	b.ReportMetric(100*float64(fig.PerClass[faultstudy.ClassEnvIndependent][last])/float64(totals[last]), "EI_share_last_pct")
}

// BenchmarkFigure1ApacheReleases regenerates Figure 1 (faults per Apache
// release, EI share roughly constant, totals growing).
func BenchmarkFigure1ApacheReleases(b *testing.B) {
	benchFigure(b, faultstudy.Figure1Apache, 50)
}

// BenchmarkFigure2GnomeTime regenerates Figure 2 (GNOME faults over time with
// the mid-study dip).
func BenchmarkFigure2GnomeTime(b *testing.B) {
	benchFigure(b, faultstudy.Figure2Gnome, 45)
}

// BenchmarkFigure3MySQLReleases regenerates Figure 3 (faults per MySQL
// release, last release small because it is new).
func BenchmarkFigure3MySQLReleases(b *testing.B) {
	benchFigure(b, faultstudy.Figure3MySQL, 44)
}

// BenchmarkAggregateDiscussion regenerates the §5.4 numbers: 139 faults,
// 14 EDN (10%), 12 EDT (9%), EI share 72-87% per application.
func BenchmarkAggregateDiscussion(b *testing.B) {
	var agg *faultstudy.AggregateResult
	for i := 0; i < b.N; i++ {
		agg = faultstudy.Aggregate()
	}
	if agg.Total != 139 {
		b.Fatalf("total = %d", agg.Total)
	}
	b.ReportMetric(float64(agg.Counts[faultstudy.ClassEnvDependentNonTransient]), "EDN")
	b.ReportMetric(float64(agg.Counts[faultstudy.ClassEnvDependentTransient]), "EDT")
	b.ReportMetric(100*agg.EIShare[faultstudy.AppApache].Value(), "apache_EI_pct")
	b.ReportMetric(100*agg.EIShare[faultstudy.AppGnome].Value(), "gnome_EI_pct")
	b.ReportMetric(100*agg.EIShare[faultstudy.AppMySQL].Value(), "mysql_EI_pct")
}

// BenchmarkRecoveryMatrix runs the end-to-end recovery verification: all 139
// faults' executable reproductions under all four strategies (556 recovery
// runs per iteration). The reported metrics are the paper's headline: pure
// generic recovery survives only the transient slice.
func BenchmarkRecoveryMatrix(b *testing.B) {
	var m *faultstudy.RecoveryMatrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = faultstudy.RunRecoveryMatrix(faultstudy.RecoveryPolicy{}, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	pp := m.Rate(faultstudy.StrategyProcessPairs, taxonomy.ClassUnknown)
	edt := m.Rate(faultstudy.StrategyProcessPairs, faultstudy.ClassEnvDependentTransient)
	b.ReportMetric(100*pp.Value(), "generic_survival_pct")
	b.ReportMetric(100*edt.Value(), "EDT_survival_pct")
	b.ReportMetric(100*m.Rate(faultstudy.StrategyProcessPairs, faultstudy.ClassEnvIndependent).Value(), "EI_survival_pct")
	b.ReportMetric(100*m.Rate(faultstudy.StrategyCleanRestart, faultstudy.ClassEnvDependentNonTransient).Value(), "restart_EDN_pct")
}

// BenchmarkLee93Comparison computes the §7 reconciliation with the Tandem
// study: 82% reported, 29% after the paper's adjustments, 5-14% here.
func BenchmarkLee93Comparison(b *testing.B) {
	m, err := faultstudy.RunRecoveryMatrix(faultstudy.RecoveryPolicy{}, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var l *faultstudy.Lee93Result
	for i := 0; i < b.N; i++ {
		l = faultstudy.CompareLee93(m)
	}
	b.ReportMetric(100*l.TandemReported, "tandem_reported_pct")
	b.ReportMetric(100*l.TandemAdjusted, "tandem_adjusted_pct")
	b.ReportMetric(100*l.OurGenericRate.Value(), "our_generic_pct")
	b.ReportMetric(100*l.PerApp[faultstudy.AppApache].Value(), "apache_pct")
	b.ReportMetric(100*l.PerApp[faultstudy.AppGnome].Value(), "gnome_pct")
	b.ReportMetric(100*l.PerApp[faultstudy.AppMySQL].Value(), "mysql_pct")
}

// BenchmarkAblationProgressiveRetry compares plain process pairs against
// Wang93-style progressive retry on the transient faults under a one-retry
// budget (§6.3).
func BenchmarkAblationProgressiveRetry(b *testing.B) {
	var ab *experiment.RetryAblation
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = experiment.RunRetryAblation(3, 77)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*ab.Plain.Value(), "plain_pct")
	b.ReportMetric(100*ab.Progressive.Value(), "progressive_pct")
}

// BenchmarkAblationRejuvenation sweeps the rejuvenation interval over the
// resource-accumulation faults (§6.2).
func BenchmarkAblationRejuvenation(b *testing.B) {
	var ab *experiment.RejuvenationAblation
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = experiment.RunRejuvenationAblation([]int{0, 16, 64}, 99)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*ab.Intervals[0].Value(), "never_pct")
	b.ReportMetric(100*ab.Intervals[16].Value(), "every16_pct")
	b.ReportMetric(100*ab.Intervals[64].Value(), "every64_pct")
}

// BenchmarkAblationClassifierSensitivity sweeps the trigger-cue weighting to
// quantify the §5.4 subjectivity caveat.
func BenchmarkAblationClassifierSensitivity(b *testing.B) {
	var points []experiment.SensitivityPoint
	for i := 0; i < b.N; i++ {
		points = experiment.RunClassifierSensitivity([]float64{0.25, 0.5, 1.0, 2.0})
	}
	for _, p := range points {
		if p.Scale == 1.0 {
			b.ReportMetric(100*p.Accuracy, "accuracy_at_study_config_pct")
		}
		if p.Scale == 0.25 {
			b.ReportMetric(float64(p.Counts[faultstudy.ClassEnvDependentTransient]), "EDT_at_quarter_weight")
		}
	}
}

// BenchmarkAblationReclaim compares generic recovery with and without
// reclaiming the failed primary's operating-system resources (DESIGN.md
// ablation 2): hung children and held ports must be killed for several
// transients to be survivable.
func BenchmarkAblationReclaim(b *testing.B) {
	var ab *experiment.ReclaimAblation
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = experiment.RunReclaimAblation(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*ab.WithReclaim.Value(), "with_reclaim_pct")
	b.ReportMetric(100*ab.WithoutReclaim.Value(), "without_reclaim_pct")
}

// BenchmarkAblationResourceGovernor measures the §6.2 "automatically
// increase the resources available" mitigation: nontransient faults under
// process pairs with and without the resource governor.
func BenchmarkAblationResourceGovernor(b *testing.B) {
	var ab *experiment.MitigationAblation
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = experiment.RunMitigationAblation(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*ab.Plain.Value(), "plain_EDN_pct")
	b.ReportMetric(100*ab.Governed.Value(), "governed_EDN_pct")
}

// BenchmarkOpsToFailure measures the §5.1 "failure point varies with load"
// observation: requests sustained before the hung-children fault manifests,
// across load mixes of increasing CGI share.
func BenchmarkOpsToFailure(b *testing.B) {
	var points []experiment.OpsToFailurePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.RunOpsToFailure(5000, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Failed {
			b.ReportMetric(float64(p.OpsToFailure), p.Label+"_ops")
		}
	}
}
