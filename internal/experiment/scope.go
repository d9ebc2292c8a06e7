package experiment

import (
	"fmt"
	"strings"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/faultlint"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/recoveryscope"
	"faultstudy/internal/stats"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
)

// Metric names of the SCOPE experiment; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricScopeSites counts statically analyzed fault-raise sites by app
	// and predicted class.
	MetricScopeSites = "faultstudy_scope_sites_total"
	// MetricScopeClassVerdicts counts per-mechanism class predictions by
	// predicted/truth class and outcome.
	MetricScopeClassVerdicts = "faultstudy_scope_class_verdicts_total"
	// MetricScopeRungVerdicts counts per-mechanism rung predictions by
	// verdict (exact, over, under).
	MetricScopeRungVerdicts = "faultstudy_scope_rung_verdicts_total"
	// MetricScopeProbeEpisodes counts dynamic probe fault episodes by rung
	// and outcome.
	MetricScopeProbeEpisodes = "faultstudy_scope_probe_episodes_total"
)

// scopeBgOps is the background workload length per probe arm; arrivals are
// spaced and recovery attempts bounded as in MREBOOT (arrivalInterval,
// recoveryAttempts).
const scopeBgOps = 40

// CI gate thresholds: the static class prediction must agree with the
// registry on at least scopeClassRecallFloor of the mechanisms, and on
// environment-independent faults the predicted rung may fall below the
// dynamically measured minimal rung (an under-scoped recovery plan that
// would strand real faults) on at most scopeEIUnderScopeCeil of them.
const (
	scopeClassRecallFloor = 0.85
	scopeEIUnderScopeCeil = 0.05
)

// ScopeConfig tunes the SCOPE experiment: whole-program static prediction of
// every registered mechanism's fault class and minimal recovery rung, scored
// against the registry and a dynamic per-rung probe sweep.
type ScopeConfig struct {
	// Seed drives every probe arm's environment and schedule stream.
	Seed int64
	// Telemetry, when non-nil, receives the scope metric family. Nil costs
	// nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the probe arms are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports and telemetry
	// are byte-identical at every worker count.
	Workers int
	// Root overrides the module root the application sources are loaded
	// from ("" walks up from the working directory to the nearest go.mod).
	Root string
}

// ScopeArm is one (mechanism, rung) probe cell: the application run under
// workload with every fault episode recovered at exactly that rung.
type ScopeArm struct {
	// Mechanism is the seeded bug active in this arm.
	Mechanism string
	// App is the application hosting the bug.
	App taxonomy.Application
	// Rung is the recovery rung under test.
	Rung recoveryscope.Rung
	// Episodes counts fault episodes (any arrival failing with a seeded
	// fault).
	Episodes int
	// Recovered counts episodes whose arrival was eventually served.
	Recovered int
	// BgUnserved counts background arrivals that were never served —
	// residue the rung failed to clear.
	BgUnserved int
	// Cured is the arm's verdict: at least one episode, every background
	// arrival served, and the process plus the whole component tree alive
	// at the end of the workload.
	Cured bool
}

// ScopeMech is the per-mechanism scorecard: the static prediction against
// the registry truth and the probe-measured minimal rung.
type ScopeMech struct {
	// Mechanism is the registry key.
	Mechanism string
	// App is the hosting application.
	App taxonomy.Application
	// TruthClass is the registry's class; StaticClass the analysis verdict.
	TruthClass, StaticClass taxonomy.FaultClass
	// StaticRung is the predicted minimal rung; TruthRung the cheapest rung
	// whose probe arm cured (RungRestart when none did — the ladder's
	// ceiling is the honest floor for an uncurable fault).
	StaticRung, TruthRung recoveryscope.Rung
	// Curable reports whether any rung's probe cured the mechanism.
	Curable bool
	// Component is the statically predicted owning component.
	Component string
	// Sites counts the mechanism's raise sites.
	Sites int
	// Interprocedural marks mechanisms whose class needed call-graph
	// evidence.
	Interprocedural bool
}

// ClassOK reports whether the static class matches the registry.
func (m ScopeMech) ClassOK() bool { return m.StaticClass == m.TruthClass }

// RungVerdict compares the predicted rung against the measured one:
// "exact", "over" (paid too much — safe), or "under" (predicted a rung that
// does not cure — the dangerous direction).
func (m ScopeMech) RungVerdict() string {
	switch {
	case m.StaticRung == m.TruthRung:
		return "exact"
	case m.StaticRung > m.TruthRung:
		return "over"
	default:
		return "under"
	}
}

// ScopeReport is the assembled experiment: per-mechanism scorecards in key
// order, the probe arms behind them, and the static site count.
type ScopeReport struct {
	// Seed is the probe sweep's root seed.
	Seed int64
	// Mechs are the scorecards, in registry key order.
	Mechs []ScopeMech
	// Arms are the probe cells, in (mechanism, rung) order.
	Arms []ScopeArm
	// Sites counts the statically analyzed raise sites.
	Sites int
}

// RunScope runs the SCOPE experiment. The static half loads the application
// sources and predicts, per mechanism, the fault class and the minimal
// recovery rung (internal/recoveryscope). The dynamic half probes every
// (mechanism, rung) cell: a componentized application under workload whose
// every fault episode is recovered at exactly that rung, curing when service
// is fully restored. The scorecard compares prediction against the registry
// class and the cheapest curing rung.
//
// Probe arms run on runArms, seeded from (Seed, arm index): outputs are
// byte-identical at every worker count.
func RunScope(cfg ScopeConfig) (*ScopeReport, error) {
	root := cfg.Root
	if root == "" {
		var err error
		if root, err = ModuleRoot(); err != nil {
			return nil, err
		}
	}
	pkgs, err := faultlint.Load(root, []string{"internal/apps/..."})
	if err != nil {
		return nil, fmt.Errorf("experiment: scope: load sources: %w", err)
	}
	analysis := recoveryscope.Analyze(pkgs)
	byMech := analysis.ByMechanism()

	mechs := registryMechanisms()
	rungs := recoveryscope.Rungs()
	arms, err := runArms(cfg.Workers, len(mechs)*len(rungs), cfg.Telemetry, func(i int, tel *Telemetry) (ScopeArm, error) {
		mech := mechs[i/len(rungs)]
		return runScopeArm(cfg, i, mech, rungs[i%len(rungs)], byMech[mech.Key].Rung, tel)
	})
	if err != nil {
		return nil, err
	}
	rep := &ScopeReport{Seed: cfg.Seed, Arms: arms, Sites: len(analysis.Sites)}
	curedAt := make(map[string]recoveryscope.Rung, len(mechs))
	for _, a := range arms {
		if _, ok := curedAt[a.Mechanism]; a.Cured && !ok {
			curedAt[a.Mechanism] = a.Rung // arms arrive in ladder order
		}
	}

	for _, mech := range mechs {
		key := mech.Key
		sm := ScopeMech{Mechanism: key, App: mech.App, TruthClass: mech.Class()}
		if mp, ok := byMech[key]; ok {
			sm.StaticClass = mp.Class
			sm.StaticRung = mp.Rung
			sm.Component = mp.Component
			sm.Sites = mp.Sites
			sm.Interprocedural = mp.Interprocedural
		}
		if rung, ok := curedAt[key]; ok {
			sm.TruthRung, sm.Curable = rung, true
		} else {
			// Nothing cures (a persistent environment condition): the
			// ladder's top is the minimal honest plan.
			sm.TruthRung = recoveryscope.RungRestart
		}
		rep.Mechs = append(rep.Mechs, sm)
	}
	rep.observe(cfg.Telemetry, analysis)
	return rep, nil
}

// observe folds the scorecard into the telemetry registry (deterministic:
// fixed iteration orders only).
func (r *ScopeReport) observe(tel *Telemetry, analysis *recoveryscope.Analysis) {
	if tel == nil {
		return
	}
	obsv.RegisterBridgeHelp(tel.Registry)
	for _, s := range analysis.Sites {
		app := strings.SplitN(firstMechanism(s.Mechanisms), "/", 2)[0]
		if app == "" {
			app = "none"
		}
		tel.Registry.Counter(MetricScopeSites,
			obsv.L("app", app, "class", s.Class.Short())...).Inc()
	}
	for _, m := range r.Mechs {
		outcome := "miss"
		if m.ClassOK() {
			outcome = "match"
		}
		tel.Registry.Counter(MetricScopeClassVerdicts,
			obsv.L("app", m.App.String(), "predicted", m.StaticClass.Short(),
				"truth", m.TruthClass.Short(), "outcome", outcome)...).Inc()
		tel.Registry.Counter(MetricScopeRungVerdicts,
			obsv.L("app", m.App.String(), "predicted", m.StaticRung.String(),
				"truth", m.TruthRung.String(), "verdict", m.RungVerdict())...).Inc()
	}
	for _, a := range r.Arms {
		outcome := "uncured"
		if a.Cured {
			outcome = "cured"
		}
		tel.Registry.Counter(MetricScopeProbeEpisodes,
			obsv.L("app", a.App.String(), "rung", a.Rung.String(),
				"outcome", outcome)...).Add(float64(a.Episodes))
	}
}

// firstMechanism returns the first mechanism key of a site ("" when the
// site speaks for none).
func firstMechanism(mechs []string) string {
	if len(mechs) == 0 {
		return ""
	}
	return mechs[0]
}

// scopeRun is the per-arm state shared by the workload loop and the episode
// handler.
type scopeRun struct {
	mech faultinject.Mechanism
	rung recoveryscope.Rung
	drv  *mrebootDriver
	arm  *ScopeArm
	rec  *obsv.Recorder
}

// runScopeArm probes one (mechanism, rung) cell. Everything it does is a
// pure function of (cfg, arm index); it shares no state with other arms.
// planned is the statically predicted minimal rung for the mechanism
// (RungNone when the analysis found no site), stamped onto the recorded
// episodes so the telemetry summary reads planned against final.
func runScopeArm(cfg ScopeConfig, armIdx int, mech faultinject.Mechanism, rung recoveryscope.Rung, planned recoveryscope.Rung, tel *Telemetry) (ScopeArm, error) {
	arm := ScopeArm{Mechanism: mech.Key, App: mech.App, Rung: rung}
	armSeed := parallel.Derive(cfg.Seed, uint64(armIdx))
	drv, sc, err := buildComponentized(mech.Key, armSeed)
	if err != nil {
		return arm, err
	}
	app := drv.app
	if err := app.Start(); err != nil {
		return arm, fmt.Errorf("experiment: scope %s × %s: start: %w", mech.Key, rung, err)
	}
	drv.warm()
	if sc.Stage != nil {
		sc.Stage()
	}
	run := &scopeRun{mech: mech, rung: rung, drv: drv, arm: &arm}
	if tel != nil {
		run.rec = tel.Recorder
		ctx := obsv.Context{App: mech.App.String(), FaultID: mech.Key, Class: mech.Class().Short()}
		if planned != recoveryscope.RungNone {
			ctx.PlannedRung = planned.String()
		}
		run.rec.SetContext(ctx)
	}

	for _, a := range spliceArrivals(drv, sc.Ops, scopeBgOps) {
		app.Env().Advance(arrivalInterval)
		preOp, err := app.Snapshot()
		if err != nil {
			return arm, fmt.Errorf("experiment: scope %s × %s: checkpoint: %w", mech.Key, rung, err)
		}
		opErr := a.do()
		if opErr == nil {
			continue
		}
		if _, isFault := faultinject.AsFailure(opErr); isFault && run.episode(a, preOp, opErr) {
			continue
		}
		// The arrival is abandoned after its episode, or failed plainly —
		// most often a dead process the rung's action failed to revive.
		// Only unserved background traffic counts against the cure (the
		// trigger is the fault itself).
		if !a.trigger {
			arm.BgUnserved++
		}
	}
	arm.Cured = arm.Episodes >= 1 && arm.BgUnserved == 0 &&
		app.Running() && app.Tree().AllRunning()
	app.Stop()
	return arm, nil
}

// episode recovers one faulted arrival at exactly the arm's rung: up to
// recoveryAttempts (rung action, retry) rounds, then one final rung action so
// abandonment still leaves whatever revival the rung can buy. Every episode
// is recorded with the static plan stamped on it (Recorder is nil-safe).
func (r *scopeRun) episode(a mrebootArrival, preOp []byte, opErr error) bool {
	r.arm.Episodes++
	env := r.drv.app.Env()
	rung := r.rung.String()
	start := env.Monotonic()
	r.rec.Begin(start, a.name, r.mech.Key)
	r.rec.Note(start, obsv.Span{Kind: obsv.SpanActivation, Note: opErr.Error()})
	if attempt := recoverAttempts(r.rec, env, rung, recoveryAttempts, func(attempt int) string {
		return r.apply(attempt, preOp)
	}, a.do); attempt > 0 {
		end := env.Monotonic()
		r.arm.Recovered++
		r.rec.Note(end, obsv.Span{Kind: obsv.SpanRetry, Rung: rung,
			Attempt: attempt, Outcome: "ok"})
		r.rec.End(end, obsv.OutcomeRecovered, rung)
		return true
	}
	target := r.apply(recoveryAttempts+1, preOp)
	end := env.Monotonic()
	r.rec.Note(end, obsv.Span{Kind: obsv.SpanAction, Rung: rung,
		Attempt: recoveryAttempts + 1, Outcome: "ok", Component: target})
	r.rec.End(end, obsv.OutcomeLost, rung)
	return false
}

// apply performs one recovery action at exactly the arm's rung and returns
// the component a structural rung targeted ("" for process-level rungs),
// for the action span. The retry rung deliberately performs no structural
// recovery — a crashed process cannot retry itself back to life; measuring
// that is the point.
func (r *scopeRun) apply(attempt int, preOp []byte) string {
	act := ladderActions[r.rung]
	act.Mechanism, act.Attempt, act.Snapshot, act.ResetOnFail = r.mech.Key, attempt, preOp, true
	target, _ := supervise.Apply(r.drv.app, act, nil)
	return target
}

// ladderActions maps each rung of the recovery-scope ladder onto the
// executor's: a subtree reboot is a widened microreboot.
var ladderActions = map[recoveryscope.Rung]supervise.Action{
	recoveryscope.RungRetry:         {Rung: supervise.RungRetry},
	recoveryscope.RungMicroreboot:   {Rung: supervise.RungMicroreboot},
	recoveryscope.RungSubtreeReboot: {Rung: supervise.RungMicroreboot, Widen: true},
	recoveryscope.RungRestore:       {Rung: supervise.RungRestore},
	recoveryscope.RungRestart:       {Rung: supervise.RungRestart},
}

// ClassRecall is the fraction of mechanisms whose static class matches the
// registry, overall or (with class set) restricted to one truth class.
func (r *ScopeReport) ClassRecall(class taxonomy.FaultClass, all bool) stats.Proportion {
	var p stats.Proportion
	for _, m := range r.Mechs {
		if !all && m.TruthClass != class {
			continue
		}
		p.N++
		if m.ClassOK() {
			p.Hits++
		}
	}
	return p
}

// RungVerdicts counts rung verdicts ("exact", "over", "under") across all
// mechanisms, or restricted to one truth class.
func (r *ScopeReport) RungVerdicts(class taxonomy.FaultClass, all bool) map[string]int {
	out := map[string]int{"exact": 0, "over": 0, "under": 0}
	for _, m := range r.Mechs {
		if !all && m.TruthClass != class {
			continue
		}
		out[m.RungVerdict()]++
	}
	return out
}

// EIUnderScope is the fraction of environment-independent mechanisms whose
// predicted rung falls below the measured minimal rung — the plans that
// would strand a real fault.
func (r *ScopeReport) EIUnderScope() stats.Proportion {
	var p stats.Proportion
	for _, m := range r.Mechs {
		if m.TruthClass != taxonomy.ClassEnvIndependent {
			continue
		}
		p.N++
		if m.RungVerdict() == "under" {
			p.Hits++
		}
	}
	return p
}

// Check asserts the SCOPE gates: overall class recall at or above
// scopeClassRecallFloor, and EI under-scoping at or below
// scopeEIUnderScopeCeil.
func (r *ScopeReport) Check() error {
	recall := r.ClassRecall(taxonomy.ClassEnvIndependent, true)
	if recall.N == 0 {
		return fmt.Errorf("experiment: scope check: no mechanisms scored")
	}
	if float64(recall.Hits) < scopeClassRecallFloor*float64(recall.N) {
		return fmt.Errorf("experiment: scope check: class recall %d/%d below %.0f%%",
			recall.Hits, recall.N, scopeClassRecallFloor*100)
	}
	under := r.EIUnderScope()
	if float64(under.Hits) > scopeEIUnderScopeCeil*float64(under.N) {
		return fmt.Errorf("experiment: scope check: EI under-scoped %d/%d above %.0f%%",
			under.Hits, under.N, scopeEIUnderScopeCeil*100)
	}
	return nil
}

// String renders the scorecard: the per-class recall and rung-verdict
// matrix, the mechanisms the prediction got wrong, and the headline.
func (r *ScopeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCOPE experiment (seed %d, %d mechanisms, %d sites, %d probe arms):\n",
		r.Seed, len(r.Mechs), r.Sites, len(r.Arms))
	tbl := &stats.Table{Header: []string{
		"truth class", "mechs", "class recall", "rung exact", "over", "under"}}
	for _, class := range taxonomy.Classes() {
		recall := r.ClassRecall(class, false)
		v := r.RungVerdicts(class, false)
		tbl.Add(class.Short(), fmt.Sprint(recall.N),
			fmt.Sprintf("%d/%d (%s)", recall.Hits, recall.N, recall.Percent()),
			fmt.Sprint(v["exact"]), fmt.Sprint(v["over"]), fmt.Sprint(v["under"]))
	}
	all := r.ClassRecall(taxonomy.ClassEnvIndependent, true)
	v := r.RungVerdicts(taxonomy.ClassEnvIndependent, true)
	tbl.Add("all", fmt.Sprint(all.N),
		fmt.Sprintf("%d/%d (%s)", all.Hits, all.N, all.Percent()),
		fmt.Sprint(v["exact"]), fmt.Sprint(v["over"]), fmt.Sprint(v["under"]))
	b.WriteString(tbl.String())

	var misses []string
	for _, m := range r.Mechs {
		if m.ClassOK() && m.RungVerdict() != "under" {
			continue
		}
		misses = append(misses, fmt.Sprintf("  %-28s class %s->%s rung %s->%s (%s)",
			m.Mechanism, m.TruthClass.Short(), m.StaticClass.Short(),
			m.TruthRung, m.StaticRung, m.RungVerdict()))
	}
	if len(misses) > 0 {
		fmt.Fprintf(&b, "\nDisagreements (truth->static):\n%s\n", strings.Join(misses, "\n"))
	}
	under := r.EIUnderScope()
	fmt.Fprintf(&b,
		"\nHeadline: from source alone the analysis recovers the fault class of %d/%d seeded\nmechanisms and under-scopes recovery on %d/%d environment-independent faults —\nthe recovery ladder can be planned before the first failure ever fires.\n",
		all.Hits, all.N, under.Hits, under.N)
	return b.String()
}
