package experiment

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"faultstudy/internal/classify"
	"faultstudy/internal/corpus"
	"faultstudy/internal/corpusgen"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/recovery"
	"faultstudy/internal/scrape"
	"faultstudy/internal/stats"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
)

// Metric names of the CORPUS experiment; the catalogue entries live in
// OBSERVABILITY.md.
const (
	// MetricCorpusFaults counts generated faults by ladder verdict.
	MetricCorpusFaults = "faultstudy_corpus_faults_total"
	// MetricCorpusClassified counts classifier decisions over generated
	// reports by agreement with the sampled class.
	MetricCorpusClassified = "faultstudy_corpus_classified_total"
	// MetricCorpusEpisodes counts two-fault episodes by overlap mode and
	// ladder verdict.
	MetricCorpusEpisodes = "faultstudy_corpus_episodes_total"
	// MetricCorpusGOFChi is each sampled dimension's chi-squared statistic.
	MetricCorpusGOFChi = "faultstudy_corpus_gof_chisq"
	// MetricCorpusDrift is the per-class recovery-rate drift against the
	// curated baseline, in percentage points.
	MetricCorpusDrift = "faultstudy_corpus_recovery_drift_points"
	// MetricCorpusSitePages is the synthetic PR site's page count.
	MetricCorpusSitePages = "faultstudy_corpus_site_pages"
	// MetricCorpusCrawled counts crawled site pages by outcome (ok, gap).
	MetricCorpusCrawled = "faultstudy_corpus_site_crawled_total"
)

// Derived-seed stream salts: the generator owns indexes [0, faults+episodes+
// site) of the root seed's stream, so the experiment's per-run environments
// draw from disjoint high offsets.
const (
	corpusLadderSalt   = uint64(1) << 40
	corpusEpisodeSalt  = uint64(2) << 40
	corpusBaselineSalt = uint64(3) << 40
)

// CorpusConfig tunes the CORPUS experiment: a generated fault population —
// and its two-fault episodes — run through classification and the supervised
// escalation ladder, validated against the spec's distributions and the
// curated 139-fault baseline.
type CorpusConfig struct {
	// Seed drives generation and every per-run environment.
	Seed int64
	// Spec is the corpus specification (corpusgen grammar); empty means the
	// published-distribution defaults (5000 faults, 500 episodes).
	Spec string
	// Supervise is the supervisor configuration used for the generated runs
	// and the curated baseline alike.
	Supervise supervise.Config
	// DriftBand is the allowed per-class recovery-rate drift against the
	// curated baseline, in percentage points (0 means 10).
	DriftBand float64
	// SiteFaults sizes the synthetic PR site's population (0 means 50000,
	// which yields >= 100k PR pages).
	SiteFaults int
	// CrawlPages bounds the crawl sample over the site (0 means 400).
	CrawlPages int
	// Telemetry, when non-nil, receives per-run traces and the corpus
	// metric family. Nil costs nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the runs are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports, traces, and
	// metric dumps are byte-identical at every worker count.
	Workers int
}

const (
	// corpusMinAgreement is the required classifier agreement over
	// generated reports.
	corpusMinAgreement = 0.98
	// corpusMinSitePages gates the default-sized site's total page count:
	// 50000 faults yield at least 100k PR pages. A site sized by the caller
	// has no page gate.
	corpusMinSitePages = 100000
)

// withDefaults fills the zero fields and returns the site's page gate.
func (c CorpusConfig) withDefaults() (CorpusConfig, int) {
	if c.DriftBand == 0 {
		c.DriftBand = 10
	}
	if c.CrawlPages <= 0 {
		c.CrawlPages = 400
	}
	minSitePages := 0
	if c.SiteFaults <= 0 {
		c.SiteFaults = 50000
		minSitePages = corpusMinSitePages
	}
	return c, minSitePages
}

// CorpusClassStat aggregates one fault class over the generated population.
type CorpusClassStat struct {
	// Class is the fault class.
	Class taxonomy.FaultClass
	// Agreement counts generated reports the classifier assigned the
	// sampled class.
	Agreement stats.Proportion
	// NotLost counts generated runs the supervisor served or degraded.
	NotLost stats.Proportion
	// Degraded is how many of the NotLost hits ended degraded.
	Degraded int
	// Covered counts generated runs whose mechanism also appears in the
	// curated corpus — the population the drift gate compares. Mechanisms
	// without curated coverage (the cache archetype, which postdates the
	// curated 139) cannot be baselined and are excluded.
	Covered stats.Proportion
	// Curated is the raw curated-139 NotLost proportion for this class
	// under the same supervisor configuration.
	Curated stats.Proportion
	// BaselineRate is the curated per-mechanism NotLost rates reweighted to
	// the generated population's mechanism mix, in [0, 1]: the rate the
	// covered runs should reproduce if the ladder treats a mechanism the
	// same regardless of which population sampled it.
	BaselineRate float64
}

// DriftPoints is the absolute drift of the covered generated runs' recovery
// rate from the mechanism-reweighted curated baseline, in percentage points.
func (s CorpusClassStat) DriftPoints() float64 {
	if s.Covered.N == 0 || s.Curated.N == 0 {
		return 0
	}
	gen := float64(s.Covered.Hits) / float64(s.Covered.N)
	d := (gen - s.BaselineRate) * 100
	if d < 0 {
		d = -d
	}
	return d
}

// CorpusEpisodeStat aggregates one overlap mode over the episodes.
type CorpusEpisodeStat struct {
	// Overlap is the co-occurrence mode (concurrent, cascade).
	Overlap string
	// NotLost counts episode runs the supervisor served or degraded.
	NotLost stats.Proportion
	// Degraded is how many of the NotLost hits ended degraded.
	Degraded int
}

// CorpusReport is the assembled CORPUS experiment.
type CorpusReport struct {
	// Seed is the experiment's root seed.
	Seed int64
	// SpecText is the canonical spec the population was drawn from.
	SpecText string
	// Faults and Episodes are the population sizes actually run.
	Faults, Episodes int
	// Classes aggregates per fault class, in EI/EDN/EDT order.
	Classes []CorpusClassStat
	// EpisodeStats aggregates per overlap mode, concurrent then cascade.
	EpisodeStats []CorpusEpisodeStat
	// GOF holds every sampled dimension's goodness-of-fit test.
	GOF []corpusgen.GOFResult
	// DriftBand is the recovery-rate drift gate the report checks against.
	DriftBand float64
	// SitePages is the synthetic PR site's total page count; SiteCrawled and
	// SiteGaps are the crawl sample's outcomes; MinSitePages is the gate.
	SitePages, SiteCrawled, SiteGaps, MinSitePages int
}

// RunCorpus runs the CORPUS experiment: generate the population, grade every
// generated report through the classifier, run every generated fault — and
// every two-fault episode — through the supervised escalation ladder, run
// the curated 139 through the identical ladder as the baseline, test every
// sampler's goodness of fit, and crawl a sample of the population's
// synthetic PR site.
//
// Faults, episodes, and baseline runs are arms of runArms, seeded from
// (Seed, salted index): outputs are byte-identical at every worker count.
func RunCorpus(cfg CorpusConfig) (*CorpusReport, error) {
	cfg, minSitePages := cfg.withDefaults()
	spec, err := corpusgen.ParseCorpusSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	gen := corpusgen.New(spec, cfg.Seed)
	faults, err := gen.Faults(cfg.Workers)
	if err != nil {
		return nil, err
	}
	episodes, err := gen.Episodes(cfg.Workers)
	if err != nil {
		return nil, err
	}

	rep := &CorpusReport{
		Seed: cfg.Seed, SpecText: spec.String(),
		Faults: len(faults), Episodes: len(episodes),
		DriftBand: cfg.DriftBand, MinSitePages: minSitePages,
	}

	// Phase 1: every generated fault through the classifier and the ladder.
	type faultOut struct {
		agree   bool
		verdict SupervisorVerdict
	}
	fouts, err := runArms(cfg.Workers, len(faults), cfg.Telemetry, func(i int, tel *Telemetry) (faultOut, error) {
		f := faults[i]
		res := classify.New(classify.Options{}).Classify(f.Report())
		out := faultOut{agree: res.Class == f.Class}
		seed := parallel.Derive(cfg.Seed, corpusLadderSalt+uint64(i))
		verdict, err := runLadder(cfg.Supervise, tel, obsv.Context{FaultID: f.ID, Class: f.Class.Short()},
			seed, f.Mechanism, "", "", 0)
		if err != nil {
			return out, fmt.Errorf("experiment: corpus fault %s (%s): %w", f.ID, f.Mechanism, err)
		}
		out.verdict = verdict
		if tel != nil {
			tel.Registry.Counter(MetricCorpusFaults,
				obsv.L("app", f.App.String(), "class", f.Class.Short(), "verdict", verdict.String())...).Inc()
			tel.Registry.Counter(MetricCorpusClassified,
				obsv.L("class", f.Class.Short(), "agree", fmt.Sprint(out.agree))...).Inc()
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: every two-fault episode through the ladder.
	everdicts, err := runArms(cfg.Workers, len(episodes), cfg.Telemetry, func(j int, tel *Telemetry) (SupervisorVerdict, error) {
		e := episodes[j]
		pf := faults[e.Primary]
		seed := parallel.Derive(cfg.Seed, corpusEpisodeSalt+uint64(j))
		verdict, err := runLadder(cfg.Supervise, tel, obsv.Context{FaultID: fmt.Sprintf("gen/ep-%05d", j), Class: pf.Class.Short()},
			seed, pf.Mechanism, e.Secondary, e.Overlap, e.Gap)
		if err != nil {
			return VerdictNone, fmt.Errorf("experiment: corpus episode %d (%s + %s): %w", j, pf.Mechanism, e.Secondary, err)
		}
		if tel != nil {
			tel.Registry.Counter(MetricCorpusEpisodes,
				obsv.L("overlap", e.Overlap, "verdict", verdict.String())...).Inc()
		}
		return verdict, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: the curated 139 through the identical ladder — the baseline
	// the generated population's recovery rates are gated against.
	curated := corpus.All()
	bouts, err := runArms(cfg.Workers, len(curated), nil, func(i int, _ *Telemetry) (SupervisorVerdict, error) {
		f := curated[i]
		seed := parallel.Derive(cfg.Seed, corpusBaselineSalt+uint64(i))
		verdict, err := runLadder(cfg.Supervise, nil, obsv.Context{}, seed, f.Mechanism, "", "", 0)
		if err != nil {
			return VerdictNone, fmt.Errorf("experiment: corpus baseline %s: %w", f.ID, err)
		}
		return verdict, nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce in population order.
	byClass := make(map[taxonomy.FaultClass]*CorpusClassStat, 3)
	for _, class := range taxonomy.Classes() {
		byClass[class] = &CorpusClassStat{Class: class}
	}
	for i, o := range fouts {
		st := byClass[faults[i].Class]
		st.Agreement.N++
		if o.agree {
			st.Agreement.Hits++
		}
		st.NotLost.N++
		if o.verdict != VerdictLost {
			st.NotLost.Hits++
			if o.verdict == VerdictDegraded {
				st.Degraded++
			}
		}
	}
	type mechTally struct{ hits, n int }
	mechRate := make(map[string]*mechTally)
	for i, f := range curated {
		st := byClass[f.Class]
		st.Curated.N++
		mt := mechRate[f.Mechanism]
		if mt == nil {
			mt = &mechTally{}
			mechRate[f.Mechanism] = mt
		}
		mt.n++
		if bouts[i] != VerdictLost {
			st.Curated.Hits++
			mt.hits++
		}
	}
	// The drift baseline: curated per-mechanism rates under the generated
	// population's mechanism mix, over the covered runs only.
	wsum := make(map[taxonomy.FaultClass]float64, 3)
	for i, o := range fouts {
		f := faults[i]
		mt := mechRate[f.Mechanism]
		if mt == nil {
			continue
		}
		st := byClass[f.Class]
		st.Covered.N++
		if o.verdict != VerdictLost {
			st.Covered.Hits++
		}
		wsum[f.Class] += float64(mt.hits) / float64(mt.n)
	}
	for class, st := range byClass {
		if st.Covered.N > 0 {
			st.BaselineRate = wsum[class] / float64(st.Covered.N)
		}
	}
	byOverlap := map[string]*CorpusEpisodeStat{
		"concurrent": {Overlap: "concurrent"},
		"cascade":    {Overlap: "cascade"},
	}
	for j, v := range everdicts {
		st := byOverlap[episodes[j].Overlap]
		st.NotLost.N++
		if v != VerdictLost {
			st.NotLost.Hits++
			if v == VerdictDegraded {
				st.Degraded++
			}
		}
	}
	for _, class := range taxonomy.Classes() {
		rep.Classes = append(rep.Classes, *byClass[class])
	}
	rep.EpisodeStats = []CorpusEpisodeStat{*byOverlap["concurrent"], *byOverlap["cascade"]}
	rep.GOF = gen.GoodnessOfFit(faults, episodes)

	// Phase 4: emit the population as a synthetic PR site and crawl a
	// bounded sample through the real crawler.
	siteSpec := *spec
	siteSpec.Faults = cfg.SiteFaults
	siteSpec.Episodes = 0
	site := corpusgen.NewSite(corpusgen.New(&siteSpec, cfg.Seed))
	rep.SitePages = site.PageCount()
	srv := httptest.NewServer(site)
	defer srv.Close()
	cr := scrape.NewCrawler(
		scrape.WithMaxPages(cfg.CrawlPages),
		scrape.WithPathFilter("/gen"),
		scrape.WithClient(srv.Client()),
	)
	pages, err := cr.Crawl(context.Background(), srv.URL+"/gen/")
	if err != nil {
		return nil, fmt.Errorf("experiment: corpus site crawl: %w", err)
	}
	for _, p := range pages {
		if p.Err != nil || p.Status != 200 {
			rep.SiteGaps++
		} else {
			rep.SiteCrawled++
		}
	}

	// Terminal gauges on the merged telemetry.
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry
		for _, g := range rep.GOF {
			reg.Gauge(MetricCorpusGOFChi, obsv.L("dimension", g.Dimension)...).Set(g.ChiSquare)
		}
		for _, st := range rep.Classes {
			reg.Gauge(MetricCorpusDrift, obsv.L("class", st.Class.Short())...).Set(st.DriftPoints())
		}
		reg.Gauge(MetricCorpusSitePages).Set(float64(rep.SitePages))
		reg.Counter(MetricCorpusCrawled, obsv.L("outcome", "ok")...).Add(float64(rep.SiteCrawled))
		if rep.SiteGaps > 0 {
			reg.Counter(MetricCorpusCrawled, obsv.L("outcome", "gap")...).Add(float64(rep.SiteGaps))
		}
	}
	return rep, nil
}

// runLadder runs one fault — or, with a secondary mechanism, one two-fault
// episode — through the supervised escalation ladder: build, start, stage,
// supervise, flush, grade. The matrix's supervised column and every CORPUS
// phase run through it. A run is observed under ctx, its App set to the
// mechanism's application.
func runLadder(sup supervise.Config, tel *Telemetry, ctx obsv.Context, seed int64,
	primary, secondary, overlap string, gap time.Duration) (SupervisorVerdict, error) {
	e, app, stage, ops, err := buildCorpusRun(primary, secondary, overlap, gap, seed)
	if err != nil {
		return VerdictNone, err
	}
	// Start before staging, like the bare-strategy runs: the staged
	// environmental condition hits a running application.
	if err := app.Start(); err != nil {
		return VerdictNone, fmt.Errorf("start: %w", err)
	}
	stage()
	ctx.App = e.app.String()
	runCfg, obs := tel.superviseConfig(sup, ctx)
	repo, err := supervise.New(app, runCfg).Run(ops)
	if err != nil {
		return VerdictNone, err
	}
	obs.Flush(app.Env().Monotonic())
	return verdictOf(repo), nil
}

// buildCorpusRun constructs the application, the post-start staging hook,
// and the supervised op stream for one run. A single fault is its scenario. A two-fault
// episode activates both mechanisms in one application instance: concurrent
// episodes stage both conditions after start and interleave the trigger ops;
// cascade episodes stage and trigger the secondary only after the gap has
// passed mid-stream.
func buildCorpusRun(primary, secondary, overlap string, gap time.Duration, seed int64) (*appEntry, recovery.Application, func(), []supervise.Op, error) {
	stageOf := func(sc faultinject.Scenario) func() {
		if sc.Stage == nil {
			return func() {}
		}
		return sc.Stage
	}
	if secondary == "" {
		e, app, sc, err := buildScenario(primary, seed)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return e, app, stageOf(sc), wrapScenarioOps(e.opKind, sc.Ops), nil
	}
	e, app, scA, scB, err := buildDuet(primary, secondary, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	switch overlap {
	case "concurrent":
		stage := func() { stageOf(scA)(); stageOf(scB)() }
		return e, app, stage, wrapScenarioOps(e.opKind, interleaveOps(scA.Ops, scB.Ops)), nil
	default: // cascade
		env := app.Env()
		bridge := faultinject.Op{Name: "episode-gap", Do: func() error {
			env.Advance(gap)
			stageOf(scB)()
			return nil
		}}
		ops := make([]faultinject.Op, 0, len(scA.Ops)+1+len(scB.Ops))
		ops = append(ops, scA.Ops...)
		ops = append(ops, bridge)
		ops = append(ops, scB.Ops...)
		return e, app, stageOf(scA), wrapScenarioOps(e.opKind, ops), nil
	}
}

// interleaveOps alternates two op streams, appending the longer tail.
func interleaveOps(a, b []faultinject.Op) []faultinject.Op {
	out := make([]faultinject.Op, 0, len(a)+len(b))
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// buildDuet constructs one application instance with two mechanisms active
// and both scenarios bound to it, and returns it with its catalogue entry.
// Both mechanisms must share a namespace: episodes strike one application,
// not two.
func buildDuet(primary, secondary string, seed int64) (*appEntry, recovery.Application, faultinject.Scenario, faultinject.Scenario, error) {
	var zero faultinject.Scenario
	e, err := appFor(primary)
	if err != nil {
		return nil, nil, zero, zero, err
	}
	if !strings.HasPrefix(secondary, e.ns) {
		return nil, nil, zero, zero, fmt.Errorf("experiment: episode mechanisms %q and %q span applications", primary, secondary)
	}
	app, scenario := e.build(seed, false, faultinject.NewSet(primary, secondary))
	scA, okA := scenario(primary)
	scB, okB := scenario(secondary)
	if !okA || !okB {
		return nil, nil, zero, zero, fmt.Errorf("experiment: missing scenario for %q or %q", primary, secondary)
	}
	return e, app, scA, scB, nil
}

// Check asserts the experiment's gates: every sampler fits its declared
// distribution, the classifier recovers the sampled classes, every class's
// recovery rate stays within the drift band of the curated baseline, every
// episode mode was exercised, and the PR site reached its page floor.
func (r *CorpusReport) Check() error {
	for _, g := range r.GOF {
		if !g.Pass() {
			return fmt.Errorf("experiment: corpus check: sampler fails goodness of fit: %s", g.String())
		}
	}
	agree, total := 0, 0
	for _, st := range r.Classes {
		agree += st.Agreement.Hits
		total += st.Agreement.N
	}
	if total > 0 && float64(agree)/float64(total) < corpusMinAgreement {
		return fmt.Errorf("experiment: corpus check: classifier agreement %d/%d below %.2f",
			agree, total, corpusMinAgreement)
	}
	for _, st := range r.Classes {
		if st.Covered.N == 0 {
			continue
		}
		if d := st.DriftPoints(); d > r.DriftBand {
			return fmt.Errorf("experiment: corpus check: %s covered recovery rate %s drifts %.1f points from mechanism-matched baseline %.0f%% (band %.1f)",
				st.Class.Short(), st.Covered.Percent(), d, st.BaselineRate*100, r.DriftBand)
		}
	}
	for _, es := range r.EpisodeStats {
		if r.Episodes > 0 && es.NotLost.N == 0 {
			return fmt.Errorf("experiment: corpus check: no %s episodes sampled", es.Overlap)
		}
	}
	if r.SitePages < r.MinSitePages {
		return fmt.Errorf("experiment: corpus check: site has %d pages, floor %d", r.SitePages, r.MinSitePages)
	}
	if r.SiteGaps > 0 {
		return fmt.Errorf("experiment: corpus check: %d crawl gaps over %d pages", r.SiteGaps, r.SiteCrawled+r.SiteGaps)
	}
	return nil
}

// String renders the per-class matrix, the episode outcomes, the sampler
// fits, and the site emission.
func (r *CorpusReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CORPUS experiment (seed %d, %d faults, %d episodes):\nspec %s\n",
		r.Seed, r.Faults, r.Episodes, r.SpecText)
	tbl := &stats.Table{Header: []string{"class", "faults", "classified", "not-lost", "degraded", "covered", "baseline", "drift"}}
	for _, st := range r.Classes {
		tbl.Add(st.Class.Short(),
			fmt.Sprint(st.NotLost.N),
			st.Agreement.Percent(),
			st.NotLost.Percent(),
			fmt.Sprint(st.Degraded),
			st.Covered.Percent(),
			fmt.Sprintf("%.0f%%", st.BaselineRate*100),
			fmt.Sprintf("%.1fpt", st.DriftPoints()))
	}
	b.WriteString(tbl.String())
	etbl := &stats.Table{Header: []string{"overlap", "episodes", "not-lost", "degraded"}}
	for _, es := range r.EpisodeStats {
		etbl.Add(es.Overlap, fmt.Sprint(es.NotLost.N), es.NotLost.Percent(), fmt.Sprint(es.Degraded))
	}
	b.WriteString(etbl.String())
	for _, g := range r.GOF {
		fmt.Fprintf(&b, "gof %s\n", g.String())
	}
	fmt.Fprintf(&b, "site: %d pages (floor %d), crawled %d ok, %d gaps\n",
		r.SitePages, r.MinSitePages, r.SiteCrawled, r.SiteGaps)
	return b.String()
}
