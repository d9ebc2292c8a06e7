package experiment

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
	"faultstudy/internal/traffic"
	"faultstudy/internal/workload"
)

// Metric names of the SERVE experiment; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricServeRequests counts scheduled arrivals by final outcome.
	MetricServeRequests = "faultstudy_serve_requests_total"
	// MetricServeRequestLatency is the per-request latency histogram
	// (RequestLatencyBuckets): service latency for clean serves, service plus
	// the full recovery wait for requests that rode out an episode.
	MetricServeRequestLatency = "faultstudy_serve_request_latency_seconds"
	// MetricServeEpisodes counts fault episodes opened mid-traffic by outcome.
	MetricServeEpisodes = "faultstudy_serve_episodes_total"
	// MetricServeMTTRSeconds is the per-episode repair-time histogram
	// (failure to service restored, virtual clock).
	MetricServeMTTRSeconds = "faultstudy_serve_mttr_seconds"
	// MetricServeSLOBurn is the arm's error-budget burn: multiples of the
	// SLO's error budget the arm's bad requests consumed.
	MetricServeSLOBurn = "faultstudy_serve_slo_burn"
)

// The serving tier's own model. Detection latency, process-restart cost and
// the attempt bound are the platform's, shared with MREBOOT (detectLatency,
// procRestart, recoveryAttempts).
const (
	// serveBreakerLimit caps recovery episodes per arm: after this many, the
	// arm sheds further fault failures as plain errors instead of walking the
	// ladder again — the supervisor's circuit breaker, keeping an
	// every-request-fails environmental fault from turning the schedule into
	// back-to-back recovery windows.
	serveBreakerLimit = 6
	// serveCheckpointEvery is the arrival stride between state checkpoints
	// while healthy; the restore rung reinstates the most recent one.
	serveCheckpointEvery = 200
	// serveDefaultUsers and serveDefaultRequests size the default schedule:
	// every user serves at least twice.
	serveDefaultUsers    = 1200
	serveDefaultRequests = 2400
	// serveDefaultArrival is the default arrival process: Poisson, one
	// arrival per simulated millisecond on average.
	serveDefaultArrival = "poisson:1ms"
)

// ServeConfig tunes the SERVE experiment: sustained open-loop traffic
// against daemonized applications with seeded bugs striking mid-stream, one
// arm per (mechanism, rung) cell.
type ServeConfig struct {
	// Seed drives every arm's environment and traffic schedule.
	Seed int64
	// Users is the simulated-user pool per arm (default 1200).
	Users int
	// Requests is the scheduled arrivals per arm (default 2400, at least
	// Users so round-robin assignment exercises every user).
	Requests int
	// Arrival is the arrival-process spec ("poisson:<gap>" or
	// "fixed:<gap>"; default "poisson:1ms").
	Arrival string
	// Telemetry, when non-nil, receives per-episode traces and the serve
	// metric family from every arm. Nil costs nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the arms are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports, telemetry,
	// and request logs are byte-identical at every worker count.
	Workers int
}

// withDefaults fills the zero fields.
func (c ServeConfig) withDefaults() ServeConfig {
	if c.Users <= 0 {
		c.Users = serveDefaultUsers
	}
	if c.Requests <= 0 {
		c.Requests = serveDefaultRequests
	}
	if c.Requests < c.Users {
		c.Requests = c.Users
	}
	if c.Arrival == "" {
		c.Arrival = serveDefaultArrival
	}
	return c
}

// ServeArm is one (mechanism, rung) cell: one daemonized application under
// the full traffic schedule with the mechanism's faults striking mid-stream
// and every episode recovered at the arm's rung.
type ServeArm struct {
	// Mechanism is the seeded bug active in this arm.
	Mechanism string
	// App is the application hosting the bug.
	App taxonomy.Application
	// Class is the mechanism's EI/EDN/EDT class.
	Class taxonomy.FaultClass
	// Rung is the recovery mechanism under test.
	Rung string
	// Requests counts scheduled arrivals (the schedule length).
	Requests int
	// Good counts arrivals served within the SLO latency threshold.
	Good int
	// Slow counts arrivals served over the threshold (including requests
	// that rode out a recovery and were eventually answered).
	Slow int
	// Refused counts arrivals fast-failed by a mid-reboot component while
	// siblings kept serving.
	Refused int
	// Errored counts arrivals that failed against a live process.
	Errored int
	// Lost counts arrivals nothing answered: detection windows and
	// process-down windows.
	Lost int
	// Shed counts fault failures the arm's circuit breaker refused to open
	// an episode for (a subset of Errored).
	Shed int
	// OutageArrivals and OutageServed measure goodput during recovery:
	// arrivals landing inside component-reboot windows, and how many of
	// those still served through sibling components.
	OutageArrivals, OutageServed int
	// Episodes and Recovered count recovery episodes opened and those whose
	// failing request was eventually served.
	Episodes, Recovered int
	// MTTRTotal accumulates repair time over recovered episodes.
	MTTRTotal time.Duration
	// Burn is the arm's SLO burn: error-budget multiples consumed.
	Burn float64
	// Records is the arm's complete per-request log, in schedule order.
	Records []traffic.Record
}

// MTTR is the arm's mean time to repair over recovered episodes (0 when
// nothing recovered).
func (a ServeArm) MTTR() time.Duration {
	if a.Recovered == 0 {
		return 0
	}
	return a.MTTRTotal / time.Duration(a.Recovered)
}

// ServeReport is the assembled experiment, arms in (mechanism, rung) order.
type ServeReport struct {
	// Seed is the experiment's root seed.
	Seed int64
	// Users and Requests are the per-arm schedule dimensions.
	Users, Requests int
	// Arrival is the arrival-process spec the schedules used.
	Arrival string
	// Arms holds every (mechanism, rung) cell.
	Arms []ServeArm
}

// serveMechanisms picks the experiment's fault axis from the registry: per
// serving daemon of the catalogue (httpd, sqldb), the first two EI, one EDN, and one
// EDT mechanisms in sorted key order — a small cross-class slice of the
// corpus so the sweep stays tractable while still striking every class
// mid-traffic.
func serveMechanisms() []faultinject.Mechanism {
	reg := Registry()
	var out []faultinject.Mechanism
	for _, e := range apps {
		if !e.serve {
			continue
		}
		quota := map[taxonomy.FaultClass]int{
			taxonomy.ClassEnvIndependent:           2,
			taxonomy.ClassEnvDependentNonTransient: 1,
			taxonomy.ClassEnvDependentTransient:    1,
		}
		for _, m := range reg.ByApp(e.app) {
			if quota[m.Class()] <= 0 {
				continue
			}
			quota[m.Class()]--
			out = append(out, m)
		}
	}
	return out
}

// RunServe runs the SERVE experiment: serveMechanisms() × recovery.Rungs(), one
// arm per cell. Each arm daemonizes a componentized application, precomputes
// an open-loop traffic schedule over cfg.Users simulated users, splices the
// mechanism's trigger ops into the stream at evenly spaced positions, and
// recovers every fault episode at the arm's rung while traffic keeps
// arriving — scoring SLO burn, goodput during recovery, per-request latency,
// and MTTR.
//
// Arms run on runArms, seeded from (Seed, arm index): reports, telemetry
// and request logs are byte-identical at every worker count.
func RunServe(cfg ServeConfig) (*ServeReport, error) {
	cfg = cfg.withDefaults()
	if _, err := traffic.ParseArrivals(cfg.Arrival); err != nil {
		return nil, err
	}
	mechs := serveMechanisms()
	rungs := recovery.Rungs()
	arms, err := runArms(cfg.Workers, len(mechs)*len(rungs), cfg.Telemetry, func(i int, tel *Telemetry) (ServeArm, error) {
		return runServeArm(cfg, i, mechs[i/len(rungs)], rungs[i%len(rungs)], tel)
	})
	if err != nil {
		return nil, err
	}
	return &ServeReport{Seed: cfg.Seed, Users: cfg.Users, Requests: cfg.Requests,
		Arrival: cfg.Arrival, Arms: arms}, nil
}

// serveApp is what a SERVE arm needs from an application: the recovery
// lifecycle, the component tree, and the serving contract.
type serveApp interface {
	componentApp
	workload.Server
}

// buildServeApp constructs the daemonized application and its scenario for
// a mechanism. Only the catalogue's serving daemons take open-loop traffic.
func buildServeApp(mechanism string, seed int64) (serveApp, faultinject.Scenario, error) {
	e, app, sc, err := buildScenario(mechanism, seed)
	if err == nil && !e.serve {
		err = fmt.Errorf("experiment: mechanism %q is not a daemon mechanism", mechanism)
	}
	if err != nil {
		return nil, faultinject.Scenario{}, err
	}
	return e.componentize(app).(serveApp), sc, nil
}

// serveRun is the per-arm state shared by the traffic loop and the episode
// machinery.
type serveRun struct {
	cfg      ServeConfig
	mech     faultinject.Mechanism
	rung     string
	app      serveApp
	env      *simenv.Env
	arm      *ServeArm
	tel      *Telemetry
	rec      *obsv.Recorder // tel's recorder; nil without telemetry
	schedule []traffic.Arrival
	next     int             // cursor into schedule
	base     time.Duration   // virtual clock at traffic start
	cp       []byte          // most recent healthy checkpoint (restore rung)
	action   recovery.Action // the rung's executor input, less the per-attempt fields
}

// runServeArm runs one (mechanism, rung) cell. Everything it does is a pure
// function of (cfg, arm index); it shares no state with other arms.
func runServeArm(cfg ServeConfig, armIdx int, mech faultinject.Mechanism, ladderRung recovery.Rung, tel *Telemetry) (ServeArm, error) {
	rung := ladderRung.String()
	arm := ServeArm{Mechanism: mech.Key, App: mech.App, Class: mech.Class(), Rung: rung}
	armSeed := parallel.Derive(cfg.Seed, uint64(armIdx))
	app, sc, err := buildServeApp(mech.Key, armSeed)
	if err != nil {
		return arm, err
	}
	if err := app.Start(); err != nil {
		return arm, fmt.Errorf("experiment: serve %s × %s: start: %w", mech.Key, rung, err)
	}
	// Warm to steady state, tolerating an early-firing bug the traffic will
	// then report, and stage the mechanism's environmental precondition.
	if app.ServeWarm() != nil && !app.Running() {
		app.ContainCrash()
		_ = app.ServeWarm()
	}
	if sc.Stage != nil {
		sc.Stage()
	}
	proc, err := traffic.ParseArrivals(cfg.Arrival)
	if err != nil {
		return arm, err
	}
	schedule, err := traffic.Schedule(traffic.GenConfig{
		Seed: armSeed, Users: cfg.Users, Requests: cfg.Requests, Process: proc})
	if err != nil {
		return arm, err
	}
	cp, err := app.Snapshot()
	if err != nil {
		return arm, fmt.Errorf("experiment: serve %s × %s: checkpoint: %w", mech.Key, rung, err)
	}
	// Every arrival is recorded exactly once: served, refused, errored or
	// lost.
	arm.Records = make([]traffic.Record, 0, len(schedule))
	run := &serveRun{cfg: cfg, mech: mech, rung: rung, app: app,
		env: app.Env(), arm: &arm, tel: tel, schedule: schedule,
		base: app.Env().Monotonic(), cp: cp,
		action: recovery.Action{Rung: ladderRung, Mechanism: mech.Key, ResetOnFail: true}}
	if tel != nil {
		run.rec = tel.Recorder
		tel.Recorder.SetContext(obsv.Context{
			App: mech.App.String(), FaultID: mech.Key, Class: mech.Class().Short()})
	}

	// The mechanism's trigger ops fire at evenly spaced schedule positions:
	// position -> op, spliced ahead of the arrival at that position.
	triggers := make(map[int]faultinject.Op, len(sc.Ops))
	if len(sc.Ops) > 0 {
		stride := len(schedule) / (len(sc.Ops) + 1)
		for i, op := range sc.Ops {
			triggers[(i+1)*stride] = op
		}
	}

	for run.next < len(run.schedule) {
		arr := run.schedule[run.next]
		run.next++
		// Advance the clock to the arrival (recovery may already have pushed
		// it past).
		if target := run.base + arr.At; target > run.env.Monotonic() {
			run.env.Advance(target - run.env.Monotonic())
		}
		if arr.Seq%serveCheckpointEvery == 0 {
			run.checkpoint()
		}
		if op, ok := triggers[arr.Seq]; ok {
			run.trigger(op)
		}
		run.serve(arr)
	}
	app.Stop()
	arm.Burn = run.score()
	return arm, nil
}

// checkpoint snapshots a healthy application for the restore rung; unhealthy
// moments keep the previous checkpoint.
func (r *serveRun) checkpoint() {
	if !r.app.Running() || !r.app.Tree().AllRunning() {
		return
	}
	if snap, err := r.app.Snapshot(); err == nil {
		r.cp = snap
	}
}

// trigger fires one spliced scenario op. A fault failure opens a recovery
// episode around the op itself; anything else is the scenario idling.
func (r *serveRun) trigger(op faultinject.Op) {
	err := op.Do()
	if _, isFault := faultinject.AsFailure(err); !isFault { //faultlint:ignore swallowfail fault failures proceed to an episode below; only non-fault scenario idling returns here
		return
	}
	if r.breakerOpen() {
		r.arm.Shed++
		recovery.Revive(r.app, nil)
		return
	}
	r.episode(op.Name, err, op.Do)
}

// serve drives one scheduled arrival through the daemon and records its
// outcome. A fault failure opens a recovery episode with the arrival itself
// as the retried op — the request waits out the recovery, and its final
// latency includes the full wait.
func (r *serveRun) serve(arr traffic.Arrival) {
	if !r.app.Running() {
		// Nothing is listening; the supervisor of last resort brings the
		// process back for subsequent traffic.
		r.record(arr, traffic.OutcomeLost, "", "process down", 0)
		recovery.Revive(r.app, nil)
		return
	}
	err := r.app.ServeArrival(arr.Seq, arr.User, arr.U)
	if err == nil {
		r.record(arr, traffic.DefaultSLO().Outcome(arr.Service), "", "", arr.Service)
		return
	}
	// Declared past the success path: errors.As takes its address, which
	// puts it on the heap.
	var de *component.DownError
	if errors.As(err, &de) {
		r.record(arr, traffic.OutcomeRefused, de.Component, err.Error(), 0)
		return
	}
	if _, isFault := faultinject.AsFailure(err); !isFault { //faultlint:ignore swallowfail fault failures proceed to the breaker/episode paths below; non-fault errors are recorded as error outcomes
		r.record(arr, traffic.OutcomeError, "", err.Error(), 0)
		return
	}
	if r.breakerOpen() {
		r.arm.Shed++
		r.record(arr, traffic.OutcomeError, "", err.Error(), 0)
		recovery.Revive(r.app, nil)
		return
	}
	arrivedAt := r.base + arr.At
	recovered := r.episode(fmt.Sprintf("arr-%04d", arr.Seq), err, func() error {
		return r.app.ServeArrival(arr.Seq, arr.User, arr.U)
	})
	if recovered {
		// The user waited from arrival through recovery, then was served.
		latency := r.env.Monotonic() - arrivedAt + arr.Service
		r.record(arr, traffic.DefaultSLO().Outcome(latency), "", "", latency)
	} else {
		r.record(arr, traffic.OutcomeLost, "", err.Error(), 0)
	}
}

// breakerOpen reports whether the arm's episode budget is spent.
func (r *serveRun) breakerOpen() bool { return r.arm.Episodes >= serveBreakerLimit }

// record appends one request record and folds it into telemetry.
func (r *serveRun) record(arr traffic.Arrival, outcome, comp, errMsg string, latency time.Duration) {
	r.arm.Requests++
	switch outcome {
	case traffic.OutcomeOK:
		r.arm.Good++
	case traffic.OutcomeSlow:
		r.arm.Slow++
	case traffic.OutcomeRefused:
		r.arm.Refused++
	case traffic.OutcomeError:
		r.arm.Errored++
	case traffic.OutcomeLost:
		r.arm.Lost++
	}
	r.arm.Records = append(r.arm.Records, traffic.Record{
		Seq: arr.Seq, User: arr.User, At: arr.At, Category: r.app.ServeCategory(arr.U),
		Latency: latency, Outcome: outcome, Component: comp, Err: errMsg,
	})
	if r.tel != nil {
		r.tel.Registry.Counter(MetricServeRequests,
			obsv.L("app", r.mech.App.String(), "rung", r.rung, "outcome", outcome)...).Inc()
		if outcome == traffic.OutcomeOK || outcome == traffic.OutcomeSlow {
			r.tel.Registry.Histogram(MetricServeRequestLatency, obsv.RequestLatencyBuckets,
				obsv.L("app", r.mech.App.String(), "rung", r.rung)...).ObserveDuration(latency)
		}
	}
}

// episode recovers one fault failure at the arm's rung while traffic keeps
// arriving: a detection window (arrivals lost), then up to recoveryAttempts
// (recovery action, retry) rounds. Reports whether the failing op was
// eventually served.
func (r *serveRun) episode(name string, faultErr error, retry func() error) bool {
	arm := r.arm
	arm.Episodes++
	start := r.env.Monotonic()
	r.rec.Begin(start, name, r.mech.Key)
	r.rec.Note(start, obsv.Span{Kind: obsv.SpanActivation, Note: faultErr.Error()})

	// Detection: between the fault firing and recovery engaging, nothing
	// serves, under every rung alike.
	r.env.Advance(detectLatency)
	r.drainLost(r.env.Monotonic(), "detection window")

	recovered := recoverAttempts(r.rec, r.env, r.rung, recoveryAttempts, r.apply, retry) > 0
	end, outcome := r.env.Monotonic(), obsv.OutcomeLost
	if recovered {
		outcome = obsv.OutcomeRecovered
		arm.Recovered++
		arm.MTTRTotal += end - start
		if r.tel != nil {
			r.tel.Registry.Histogram(MetricServeMTTRSeconds, obsv.LatencyBuckets,
				obsv.L("rung", r.rung, "class", r.mech.Class().Short())...).ObserveDuration(end - start)
		}
	} else {
		recovery.Revive(r.app, nil)
	}
	r.rec.End(end, outcome, r.rung)
	if r.tel != nil {
		r.tel.Registry.Counter(MetricServeEpisodes,
			obsv.L("app", r.mech.App.String(), "rung", r.rung,
				"class", r.mech.Class().Short(), "outcome", outcome)...).Inc()
	}
	return recovered
}

// apply performs one recovery attempt at the arm's rung and returns the
// component a structural rung targeted ("" for process-level rungs).
// Process-level rungs restore the latest checkpoint. A process left in
// pristine state, by the restart rung or by a failed restore, is re-warmed.
//
// The retry rung deliberately performs no structural recovery — a crashed
// process cannot retry itself back to life; measuring that under live
// traffic is part of the point.
func (r *serveRun) apply(attempt int) string {
	act := r.action
	act.Attempt, act.Snapshot = attempt, r.cp
	target, err := recovery.Apply(r.app, act, r.outage)
	if act.Rung == recovery.RungRestart || (target == "" && err != nil) {
		// A restart re-runs the init script: schema and seed state return,
		// accumulated state does not.
		_ = r.app.ServeWarm()
	}
	return target
}

// outage charges one recovery window. A process bounce costs
// procRestart, during which every arrival is lost. The arrivals
// scheduled inside a component reboot are served through the partially
// down tree: those routed through the dead component are refused fast,
// those through live siblings still serve — the goodput a microreboot
// preserves and a process restart forfeits.
func (r *serveRun) outage(target string, cost time.Duration) {
	if target == "" {
		r.env.Advance(procRestart)
		r.drainLost(r.env.Monotonic(), "process restart")
		return
	}
	until := r.env.Monotonic() + cost
	for r.next < len(r.schedule) && r.base+r.schedule[r.next].At <= until {
		arr := r.schedule[r.next]
		r.next++
		r.arm.OutageArrivals++
		err := r.app.ServeArrival(arr.Seq, arr.User, arr.U)
		var de *component.DownError
		switch {
		case err == nil:
			r.arm.OutageServed++
			r.record(arr, traffic.DefaultSLO().Outcome(arr.Service), "", "", arr.Service)
		case errors.As(err, &de):
			r.record(arr, traffic.OutcomeRefused, de.Component, err.Error(), 0)
		default:
			// The arrival hit the active fault rather than the outage; the
			// episode in progress already owns recovery.
			r.record(arr, traffic.OutcomeError, "", err.Error(), 0)
		}
	}
}

// drainLost consumes every scheduled arrival at or before the given virtual
// time as lost: the process (or the whole service) was not answering.
func (r *serveRun) drainLost(until time.Duration, why string) {
	for r.next < len(r.schedule) && r.base+r.schedule[r.next].At <= until {
		arr := r.schedule[r.next]
		r.next++
		r.record(arr, traffic.OutcomeLost, "", why, 0)
	}
}

// score computes the arm's SLO burn and emits the terminal gauge.
func (r *serveRun) score() float64 {
	bad := r.arm.Requests - r.arm.Good
	burn := traffic.DefaultSLO().Burn(bad, r.arm.Requests)
	if r.tel != nil {
		r.tel.Registry.Gauge(MetricServeSLOBurn,
			obsv.L("app", r.mech.App.String(), "rung", r.rung,
				"mechanism", r.mech.Key)...).Set(burn)
	}
	return burn
}

// cell sums the arms of one class at one rung into one arm.
func (r *ServeReport) cell(class taxonomy.FaultClass, rung string) ServeArm {
	var c ServeArm
	for _, a := range r.Arms {
		if a.Class == class && a.Rung == rung {
			c.Requests += a.Requests
			c.Good += a.Good
			c.Refused += a.Refused
			c.Lost += a.Lost
			c.OutageArrivals += a.OutageArrivals
			c.OutageServed += a.OutageServed
			c.Recovered += a.Recovered
			c.MTTRTotal += a.MTTRTotal
		}
	}
	return c
}

// BurnBy aggregates SLO burn across the arms of one class at one rung:
// total bad requests over total requests, as error-budget multiples.
func (r *ServeReport) BurnBy(class taxonomy.FaultClass, rung string) float64 {
	c := r.cell(class, rung)
	return traffic.DefaultSLO().Burn(c.Requests-c.Good, c.Requests)
}

// WriteRequestLog writes every arm's request records as one JSONL stream in
// arm order (sequence numbers restart at each arm boundary). The stream is
// byte-identical at every worker count.
func (r *ServeReport) WriteRequestLog(w io.Writer) error {
	for _, a := range r.Arms {
		if err := traffic.WriteRecords(w, a.Records); err != nil {
			return fmt.Errorf("experiment: serve request log %s × %s: %w", a.Mechanism, a.Rung, err)
		}
	}
	return nil
}

// Check asserts the experiment's headline claim under sustained traffic:
// for environment-independent faults, a targeted microreboot must burn
// strictly less error budget than a whole-process restart, and every cell
// of the sweep must actually have served traffic.
func (r *ServeReport) Check() error {
	for _, a := range r.Arms {
		if a.Requests == 0 {
			return fmt.Errorf("experiment: serve check: arm %s × %s served no traffic", a.Mechanism, a.Rung)
		}
	}
	ei := taxonomy.ClassEnvIndependent
	micro := r.BurnBy(ei, "microreboot")
	restart := r.BurnBy(ei, "restart")
	if micro >= restart {
		return fmt.Errorf("experiment: serve check: EI SLO burn %.1fx (microreboot) not below %.1fx (restart)",
			micro, restart)
	}
	return nil
}

// String renders the class × rung aggregate and the headline.
func (r *ServeReport) String() string {
	var b strings.Builder
	slo := traffic.DefaultSLO()
	fmt.Fprintf(&b, "SERVE experiment (seed %d, %d arms, %d users × %d requests, %s, SLO %.3g%% @ %s):\n",
		r.Seed, len(r.Arms), r.Users, r.Requests, r.Arrival, slo.Objective*100, slo.Latency)
	tbl := &stats.Table{Header: []string{
		"class", "rung", "requests", "good", "refused", "lost", "burn", "reboot-served", "mttr"}}
	for _, class := range taxonomy.Classes() {
		for _, ladderRung := range recovery.Rungs() {
			rung := ladderRung.String()
			c := r.cell(class, rung)
			if c.Requests == 0 {
				continue
			}
			gp := stats.Proportion{Hits: c.OutageServed, N: c.OutageArrivals}
			tbl.Add(class.Short(), rung,
				fmt.Sprint(c.Requests), fmt.Sprint(c.Good), fmt.Sprint(c.Refused), fmt.Sprint(c.Lost),
				fmt.Sprintf("%.1fx", slo.Burn(c.Requests-c.Good, c.Requests)),
				fmt.Sprintf("%d/%d (%s)", gp.Hits, gp.N, gp.Percent()),
				mrebootMTTRCell(c.MTTR()))
		}
	}
	b.WriteString(tbl.String())
	ei := taxonomy.ClassEnvIndependent
	fmt.Fprintf(&b,
		"\nHeadline: under sustained open-loop traffic, recovering EI faults by component\nmicroreboot burns %.1fx the SLO error budget where a process restart burns %.1fx —\nkeeping siblings serving through the reboot window is what an SLO actually buys.\n",
		r.BurnBy(ei, "microreboot"), r.BurnBy(ei, "restart"))
	return b.String()
}
