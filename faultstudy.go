// Package faultstudy reproduces Chandra & Chen, "Whither Generic Recovery
// from Application Faults? A Fault Study using Open-Source Software"
// (DSN 2000) as a runnable system.
//
// The package is a facade over the implementation packages; it exposes five
// capability groups:
//
//   - The fault-study pipeline (RunStudy, MineApache/MineGnome/MineMySQL,
//     ClassifyReports): mine bug sources in their native formats, narrow to
//     unique qualifying faults, and classify each by environment dependence.
//   - The curated corpus (Corpus, CorpusByApp): the study's 139 faults with
//     oracle classifications, usable as ground truth.
//   - The simulated substrate (NewApacheTrackerSite, NewGnomeTrackerSite,
//     NewMySQLArchiveSite; BuildScenario): generated 1999-era bug sources to
//     mine, and the three simulated applications with the paper's bugs
//     seeded in them.
//   - The recovery experiments (NewRecoveryManager, RunRecoveryMatrix,
//     Table/Figures/Aggregate, the ablations): the end-to-end verification
//     the paper proposed as future work, plus regeneration of every table
//     and figure in the evaluation.
//   - The observability layer (NewTelemetry, ReadEpisodeTrace,
//     SummarizeEpisodes): deterministic metrics and per-fault episode
//     traces over any supervised run — see OBSERVABILITY.md.
//
// Quick start:
//
//	result := faultstudy.Table(faultstudy.AppApache)
//	fmt.Print(result)        // Table 1, measured vs paper
//
//	matrix, _ := faultstudy.RunRecoveryMatrix(faultstudy.RecoveryPolicy{}, 42)
//	fmt.Print(matrix)        // who survives what, by class and strategy
package faultstudy

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"faultstudy/internal/bugsite"
	"faultstudy/internal/classify"
	"faultstudy/internal/core"
	"faultstudy/internal/corpus"
	"faultstudy/internal/experiment"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/recovery"
	"faultstudy/internal/report"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
)

// Core vocabulary, re-exported from the taxonomy.
type (
	// FaultClass partitions faults by environment dependence.
	FaultClass = taxonomy.FaultClass
	// TriggerKind names the environmental condition triggering a fault.
	TriggerKind = taxonomy.TriggerKind
	// Symptom is the observable failure mode.
	Symptom = taxonomy.Symptom
	// Severity is the tracker-assigned severity.
	Severity = taxonomy.Severity
	// Application identifies one of the three studied applications.
	Application = taxonomy.Application
)

// Fault classes (paper §3).
const (
	// ClassEnvIndependent faults are deterministic given the workload.
	ClassEnvIndependent = taxonomy.ClassEnvIndependent
	// ClassEnvDependentNonTransient faults depend on a persistent condition.
	ClassEnvDependentNonTransient = taxonomy.ClassEnvDependentNonTransient
	// ClassEnvDependentTransient faults depend on a self-healing condition.
	ClassEnvDependentTransient = taxonomy.ClassEnvDependentTransient
)

// The studied applications.
const (
	// AppApache is the Apache web server.
	AppApache = taxonomy.AppApache
	// AppGnome is the GNOME desktop environment.
	AppGnome = taxonomy.AppGnome
	// AppMySQL is the MySQL database server.
	AppMySQL = taxonomy.AppMySQL
)

// Report is a normalized bug report.
type Report = report.Report

// Fault is one classified fault from the study's corpus.
type Fault = corpus.Fault

// Corpus returns the study's 139 faults with oracle classifications.
func Corpus() []*Fault { return corpus.All() }

// CorpusByApp returns one application's corpus faults.
func CorpusByApp(app Application) []*Fault { return corpus.ByApp(app) }

// CorpusJSON renders the full 139-fault corpus as indented JSON, with the
// taxonomy enums encoded by name — the study's dataset as a data artifact.
func CorpusJSON() ([]byte, error) {
	return json.MarshalIndent(corpus.All(), "", "  ")
}

// ClassifierOptions tunes the rule classifier; the zero value is the study
// configuration.
type ClassifierOptions = classify.Options

// Classification is one classifier decision.
type Classification = classify.Result

// NewClassifier builds the study's fault classifier.
func NewClassifier(opts ClassifierOptions) *classify.Classifier {
	return classify.New(opts)
}

// StudyOptions tunes the full pipeline.
type StudyOptions = core.Options

// StudySources names the tracker base URLs for a study run.
type StudySources = core.Sources

// StudyResult is the full three-application study output.
type StudyResult = core.StudyResult

// AppStudyResult is one application's pipeline output.
type AppStudyResult = core.AppResult

// RunStudy mines all three sources over HTTP and runs the full pipeline —
// the paper's methodology end to end.
func RunStudy(ctx context.Context, src StudySources, opts StudyOptions) (*StudyResult, error) {
	return core.Study(ctx, src, opts)
}

// MineApache crawls a GNATS-style tracker and returns its normalized
// reports.
func MineApache(ctx context.Context, baseURL string) ([]*Report, error) {
	return core.MineApache(ctx, baseURL)
}

// MineGnome crawls a debbugs-style tracker (plus CVS log) and returns its
// normalized reports.
func MineGnome(ctx context.Context, baseURL string) ([]*Report, error) {
	return core.MineGnome(ctx, baseURL)
}

// MineMySQL fetches a mailing-list mbox archive, applies the study's keyword
// search, and returns one normalized report per matching thread.
func MineMySQL(ctx context.Context, baseURL string) ([]*Report, error) {
	return core.MineMySQL(ctx, baseURL)
}

// ClassifyReports runs the post-mining stages (inclusion filter, duplicate
// narrowing, classification) over raw reports.
func ClassifyReports(raw []*Report, opts StudyOptions) *AppStudyResult {
	return core.Classify(raw, opts)
}

// SiteConfig controls generation of the simulated 1999-era bug sources.
type SiteConfig = bugsite.Config

// NewApacheTrackerSite serves a generated GNATS problem-report tracker
// (bugs.apache.org circa 1999) embedding the corpus faults among duplicates
// and noise.
func NewApacheTrackerSite(cfg SiteConfig) http.Handler { return bugsite.NewApacheSite(cfg) }

// NewGnomeTrackerSite serves a generated debbugs tracker plus CVS log
// (bugs.gnome.org + cvs.gnome.org circa 1999).
func NewGnomeTrackerSite(cfg SiteConfig) http.Handler { return bugsite.NewGnomeSite(cfg) }

// NewMySQLArchiveSite serves a generated mailing-list mbox archive (the
// geocrawler mysql list circa 1999).
func NewMySQLArchiveSite(cfg SiteConfig) http.Handler { return bugsite.NewMySQLSite(cfg) }

// Recovery experiment surface.
type (
	// RecoveryStrategy selects a recovery system.
	RecoveryStrategy = recovery.Strategy
	// RecoveryPolicy tunes retries and takeover time.
	RecoveryPolicy = recovery.Policy
	// RecoveryOutcome is one scenario's result under one strategy.
	RecoveryOutcome = recovery.Outcome
	// RecoverableApp is the generic-recovery view of a simulated
	// application.
	RecoverableApp = recovery.Application
	// RecoveryTraceEvent is one step of a recovery run, delivered to
	// RecoveryPolicy.Trace.
	RecoveryTraceEvent = recovery.TraceEvent
	// Scenario is an executable fault reproduction.
	Scenario = faultinject.Scenario
)

// Recovery strategies (paper §2, §6).
const (
	// StrategyNone performs no recovery.
	StrategyNone = recovery.StrategyNone
	// StrategyProcessPairs is truly generic checkpoint-and-failover
	// recovery.
	StrategyProcessPairs = recovery.StrategyProcessPairs
	// StrategyProgressiveRetry adds Wang93-style induced environment change.
	StrategyProgressiveRetry = recovery.StrategyProgressiveRetry
	// StrategyCleanRestart is application-specific state-discarding restart.
	StrategyCleanRestart = recovery.StrategyCleanRestart
)

// NewRecoveryManager builds a recovery manager.
func NewRecoveryManager(policy RecoveryPolicy) *recovery.Manager {
	return recovery.NewManager(policy)
}

// BuildScenario constructs the simulated application and executable scenario
// reproducing one corpus fault's mechanism (see Fault.Mechanism).
func BuildScenario(mechanism string, seed int64) (RecoverableApp, Scenario, error) {
	return experiment.BuildScenario(mechanism, seed)
}

// Supervision layer (the operator's story over generic recovery).
type (
	// SupervisorConfig tunes a Supervisor.
	SupervisorConfig = supervise.Config
	// SupervisorReport is the accounting of one supervised run.
	SupervisorReport = supervise.Report
	// SoakConfig tunes the sustained-workload soak run.
	SoakConfig = experiment.SoakConfig
	// SoakResult is one application's soak outcome.
	SoakResult = experiment.SoakResult
	// SupervisorVerdict grades one supervised run in the matrix.
	SupervisorVerdict = experiment.SupervisorVerdict
)

// RunSoak drives all three applications under sustained workload with a
// random subset of seeded bugs active, each under a supervisor.
func RunSoak(cfg SoakConfig) ([]SoakResult, error) { return experiment.RunSoak(cfg) }

// RenderSoak formats soak results, one supervisor report per application.
func RenderSoak(results []SoakResult) string { return experiment.RenderSoak(results) }

// Observability layer (see OBSERVABILITY.md).
type (
	// Telemetry bundles a metrics registry and an episode recorder for one
	// experiment run. Attach one via SoakConfig.Telemetry (or
	// RecoveryMatrix.AddSupervisedWorkers) and export with its WriteTrace,
	// WriteTimeline, WritePrometheus, and WriteMetricsJSON methods. A nil
	// Telemetry disables observation at zero cost.
	Telemetry = experiment.Telemetry
	// FaultEpisode is one recorded fault-handling episode: everything that
	// happened to one failing operation between its first observed failure
	// and the final verdict, as spans on the virtual clock.
	FaultEpisode = obsv.Episode
	// EpisodeClassSummary aggregates episodes of one fault class: outcome
	// counts, MTTR percentiles, retries-per-recovery, rung distribution.
	EpisodeClassSummary = obsv.ClassSummary
)

// NewTelemetry builds an empty Telemetry ready to attach to a run.
func NewTelemetry() *Telemetry { return experiment.NewTelemetry() }

// ReadEpisodeTrace parses and validates an episode-trace JSONL stream, as
// written by Telemetry.WriteTrace or recoverylab -trace.
func ReadEpisodeTrace(r io.Reader) ([]*FaultEpisode, error) { return obsv.ReadJSONL(r) }

// SummarizeEpisodes aggregates episodes into per-class summary rows;
// RenderEpisodeSummary formats them as the recoverylab -metrics table.
func SummarizeEpisodes(eps []*FaultEpisode) []*EpisodeClassSummary { return obsv.Summarize(eps) }

// RenderEpisodeSummary renders per-class summary rows as a text table.
func RenderEpisodeSummary(sums []*EpisodeClassSummary) string { return obsv.RenderSummary(sums) }

// RecoveryMatrix is the full recovery-verification experiment.
type RecoveryMatrix = experiment.Matrix

// RunRecoveryMatrix runs every corpus fault under every recovery strategy.
func RunRecoveryMatrix(policy RecoveryPolicy, seed int64) (*RecoveryMatrix, error) {
	return experiment.RunMatrix(policy, seed)
}

// RunRecoveryMatrixWorkers is RunRecoveryMatrix sharded fault-by-fault over
// a bounded worker pool (workers ≤ 0 means one per processor). The matrix is
// byte-identical at every worker count; see internal/parallel for the
// determinism contract.
func RunRecoveryMatrixWorkers(policy RecoveryPolicy, seed int64, workers int) (*RecoveryMatrix, error) {
	return experiment.RunMatrixWorkers(policy, seed, workers)
}

// TableResult is one regenerated classification table.
type TableResult = experiment.TableResult

// Table regenerates one application's classification table (paper Tables
// 1–3) from the corpus via the reproducible classifier.
func Table(app Application) *TableResult {
	return experiment.Table(app, classify.Options{})
}

// FigureSeries is a regenerated fault-distribution figure.
type FigureSeries = experiment.FigureSeries

// Figure1Apache regenerates Figure 1 (Apache faults per release).
func Figure1Apache() *FigureSeries { return experiment.Figure1Apache() }

// Figure2Gnome regenerates Figure 2 (GNOME faults over time).
func Figure2Gnome() *FigureSeries { return experiment.Figure2Gnome() }

// Figure3MySQL regenerates Figure 3 (MySQL faults per release).
func Figure3MySQL() *FigureSeries { return experiment.Figure3MySQL() }

// AggregateResult reproduces the §5.4 discussion numbers.
type AggregateResult = experiment.Aggregate

// Aggregate computes the cross-application totals (139 faults; 10% EDN, 9%
// EDT; 72–87% EI per application).
func Aggregate() *AggregateResult {
	return experiment.ComputeAggregate(classify.Options{})
}

// ExportArtifacts renders every regenerated artifact as named CSV documents
// (file name -> content): the three tables, the three figures, and — when a
// matrix is supplied — the per-fault recovery outcomes and their summary.
func ExportArtifacts(m *RecoveryMatrix) (map[string]string, error) {
	return experiment.ExportAll(m)
}

// Lee93Result reconciles the measurements with Lee & Iyer's Tandem study.
type Lee93Result = experiment.Lee93

// CompareLee93 computes the §7 reconciliation from a recovery matrix.
func CompareLee93(m *RecoveryMatrix) *Lee93Result {
	return experiment.ComputeLee93(m)
}
