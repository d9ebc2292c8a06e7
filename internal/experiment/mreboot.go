package experiment

import (
	"fmt"
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
)

// Metric names of the MREBOOT sweep; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricMRebootEpisodes counts closed MREBOOT fault episodes by outcome.
	MetricMRebootEpisodes = "faultstudy_mreboot_episodes_total"
	// MetricMRebootRequestsLost counts requests lost across the sweep:
	// arrivals inside outage windows plus abandoned triggers.
	MetricMRebootRequestsLost = "faultstudy_mreboot_requests_lost_total"
	// MetricMRebootMTTRSeconds is the per-episode repair-time histogram
	// (failure detection to service restored, virtual clock).
	MetricMRebootMTTRSeconds = "faultstudy_mreboot_mttr_seconds"
	// MetricMRebootComponentReboots counts component reboots by component.
	MetricMRebootComponentReboots = "faultstudy_mreboot_component_reboots_total"
)

// MRebootPolicies is the fixed recovery-mechanism axis of the MREBOOT sweep,
// in arm order: targeted component microreboot, whole-process restart with
// the pre-failure state, and rollback to the run-start checkpoint.
func MRebootPolicies() []string { return []string{"microreboot", "restart", "rollback"} }

// The componentized sweeps' virtual-time model: MREBOOT, SCOPE and SERVE
// share the arrival spacing, detection latency, process-restart cost and
// attempt bound, because they are properties of the platform, not of the
// experiment asking the question. The asymmetry between rebootCost (per
// component, simulated milliseconds charged by the tree) and procRestart
// (simulated seconds) is MREBOOT's subject: a crash-only component cycles in
// the time a process takes to even exit.
const (
	// arrivalInterval is the arrival spacing of the MREBOOT and SCOPE
	// background workload; every outage window loses (or, under microreboot,
	// re-routes) window/interval arrivals. It is tighter than the cheapest
	// component reboot so even leaf reboots see in-flight traffic.
	arrivalInterval = 2 * time.Millisecond
	// detectLatency is the failure-detection latency charged to every episode
	// under every policy: the time between the fault firing and the recovery
	// mechanism engaging, during which nothing serves.
	detectLatency = 100 * time.Millisecond
	// procRestart is the cost of bouncing the whole process: exit, exec,
	// reinitialize, restore. Every rung that bounces the process pays it on
	// every attempt.
	procRestart = 2 * time.Second
	// recoveryAttempts bounds recovery attempts per episode; MREBOOT's
	// microreboot policy widens from the attributed component to its
	// dependent subtree on the second attempt, mirroring the supervisor's
	// rung.
	recoveryAttempts = 2
	// mrebootBgOps is the background workload length per arm; the scenario's
	// trigger ops are spliced in at evenly spaced positions.
	mrebootBgOps = 60
)

// MRebootConfig tunes the MREBOOT sweep: every registered seeded-bug
// mechanism crossed with every recovery policy, each arm a componentized
// application under concurrent in-flight workload.
type MRebootConfig struct {
	// Seed drives every arm's environment and schedule stream.
	Seed int64
	// Telemetry, when non-nil, receives per-episode traces and the mreboot
	// metric family from every arm. Nil costs nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the arms are sharded over (0 or negative
	// means one per processor; 1 is serial). Reports and telemetry are
	// byte-identical at every worker count.
	Workers int
}

// MRebootArm is one (mechanism, policy) cell of the sweep.
type MRebootArm struct {
	// Mechanism is the seeded bug active in this arm.
	Mechanism string
	// App is the application hosting the bug.
	App taxonomy.Application
	// Class is the mechanism's EI/EDN/EDT class.
	Class taxonomy.FaultClass
	// Policy is the recovery mechanism under test.
	Policy string
	// Requests counts every arrival: the scheduled workload plus the modeled
	// in-window arrivals of each outage.
	Requests int
	// Served counts arrivals that were served, including during outages.
	Served int
	// Lost counts requests lost: in-window casualties, detection-window
	// arrivals, and abandoned triggers.
	Lost int
	// OutageArrivals and OutageServed measure the goodput dip: arrivals
	// landing inside recovery windows, and how many of those still served
	// (through sibling components; zero by construction for process-level
	// policies).
	OutageArrivals, OutageServed int
	// Episodes and Recovered count fault episodes and those whose failing
	// request was eventually served.
	Episodes, Recovered int
	// Reboots counts component reboots performed (microreboot arms only).
	Reboots int
	// MTTRTotal accumulates repair time over recovered episodes.
	MTTRTotal time.Duration
}

// MTTR is the arm's mean time to repair over recovered episodes (0 when
// nothing recovered).
func (a MRebootArm) MTTR() time.Duration {
	if a.Recovered == 0 {
		return 0
	}
	return a.MTTRTotal / time.Duration(a.Recovered)
}

// MRebootReport is the assembled sweep, arms in (mechanism, policy) order.
type MRebootReport struct {
	// Seed is the sweep's root seed.
	Seed int64
	// Arms holds every (mechanism, policy) cell.
	Arms []MRebootArm
}

// RunMReboot runs the MREBOOT sweep: Registry() × MRebootPolicies(), one arm
// per cell. Each arm componentizes a fresh application, splices the
// mechanism's trigger ops into a steady background workload arriving on the
// virtual clock, and recovers every fault episode with the arm's policy —
// scoring MTTR, requests lost, and the goodput dip of each mechanism.
//
// Arms run on runArms, seeded from (Seed, arm index): outputs are
// byte-identical at every worker count.
func RunMReboot(cfg MRebootConfig) (*MRebootReport, error) {
	mechs := Registry().Mechanisms()
	policies := MRebootPolicies()
	arms, err := runArms(cfg.Workers, len(mechs)*len(policies), cfg.Telemetry, func(i int, tel *Telemetry) (MRebootArm, error) {
		return runMRebootArm(cfg, i, mechs[i/len(policies)], policies[i%len(policies)], tel)
	})
	if err != nil {
		return nil, err
	}
	return &MRebootReport{Seed: cfg.Seed, Arms: arms}, nil
}

// componentApp is what an MREBOOT arm needs from an application: the recovery
// lifecycle plus the component tree.
type componentApp interface {
	recovery.Application
	component.Host
}

// mrebootDriver binds a componentized application to its background
// workload: bg serves the i-th background arrival through the component
// routing.
type mrebootDriver struct {
	app componentApp
	bg  func(i int) error
}

// buildComponentized constructs the componentized application, its scenario,
// and the background-workload driver for a mechanism, then starts the
// application, warms it (establishing the sessions and state the workload
// uses) and stages the scenario's environmental precondition: the preamble
// of every MREBOOT and SCOPE arm. Warmup errors are tolerated (a seeded bug
// may fire during warmup; the workload then reports it), with crashes
// contained so staging still runs against a live process.
func buildComponentized(mechanism string, seed int64) (*mrebootDriver, faultinject.Scenario, error) {
	e, app, sc, err := buildScenario(mechanism, seed)
	if err == nil && e.drive == nil {
		err = fmt.Errorf("experiment: %s has no background workload driver", mechanism)
	}
	if err != nil {
		return nil, faultinject.Scenario{}, err
	}
	c := e.componentize(app)
	warm, bg := e.drive(c)
	if err := c.Start(); err != nil {
		return nil, faultinject.Scenario{}, fmt.Errorf("experiment: %s: start: %w", mechanism, err)
	}
	warm()
	if sc.Stage != nil {
		sc.Stage()
	}
	return &mrebootDriver{app: c, bg: bg}, sc, nil
}

// tolerate runs a warmup step, containing any crash it causes so the arm
// still starts from a live process.
func tolerate(app componentApp, f func() error) {
	if f() != nil && !app.Running() {
		app.ContainCrash()
	}
}

// mrebootArrival is one scheduled workload arrival.
type mrebootArrival struct {
	name    string
	trigger bool
	do      func() error
}

// spliceArrivals builds the arm's arrival schedule: bg background ops with
// the scenario's trigger ops inserted in order at evenly spaced positions.
func spliceArrivals(drv *mrebootDriver, ops []faultinject.Op, bg int) []mrebootArrival {
	total := bg + len(ops)
	stride := total / (len(ops) + 1)
	arrivals := make([]mrebootArrival, 0, total)
	next, bgIdx := 0, 0
	for i := 0; i < total; i++ {
		if next < len(ops) && i == (next+1)*stride {
			op := ops[next]
			arrivals = append(arrivals, mrebootArrival{name: op.Name, trigger: true, do: op.Do})
			next++
			continue
		}
		idx := bgIdx
		arrivals = append(arrivals, mrebootArrival{
			name: fmt.Sprintf("bg-%03d", idx),
			do:   func() error { return drv.bg(idx) },
		})
		bgIdx++
	}
	return arrivals
}

// mrebootRun is the per-arm state shared by the workload loop and the
// episode handler.
type mrebootRun struct {
	mech   faultinject.Mechanism
	policy string
	drv    *mrebootDriver
	env    *simenv.Env
	epoch  []byte
	action recovery.Action // the policy's executor input, less the per-attempt fields
	arm    *MRebootArm
	tel    *Telemetry
	rec    *obsv.Recorder // tel's recorder; nil without telemetry
	bgIdx  int
}

// runMRebootArm runs one (mechanism, policy) cell. Everything it does is a
// pure function of (cfg, arm index); it shares no state with other arms.
func runMRebootArm(cfg MRebootConfig, armIdx int, mech faultinject.Mechanism, policy string, tel *Telemetry) (MRebootArm, error) {
	arm := MRebootArm{Mechanism: mech.Key, App: mech.App, Class: mech.Class(), Policy: policy}
	armSeed := parallel.Derive(cfg.Seed, uint64(armIdx))
	drv, sc, err := buildComponentized(mech.Key, armSeed)
	if err != nil {
		return arm, err
	}
	app := drv.app
	epoch, err := app.Snapshot()
	if err != nil {
		return arm, fmt.Errorf("experiment: mreboot %s × %s: checkpoint: %w", mech.Key, policy, err)
	}
	// Restart and rollback bounce the process and restore a snapshot.
	run := &mrebootRun{mech: mech, policy: policy, drv: drv, env: app.Env(), epoch: epoch, arm: &arm, tel: tel,
		bgIdx: mrebootBgOps, action: recovery.Action{Rung: recovery.RungRestore, Mechanism: mech.Key, ResetOnFail: true}}
	if policy == "microreboot" {
		run.action.Rung = recovery.RungMicroreboot
	}
	if tel != nil {
		run.rec = tel.Recorder
		tel.Recorder.SetContext(obsv.Context{
			App: mech.App.String(), FaultID: mech.Key, Class: mech.Class().Short()})
	}

	for _, a := range spliceArrivals(drv, sc.Ops, mrebootBgOps) {
		run.env.Advance(arrivalInterval)
		preOp, err := app.Snapshot()
		if err != nil {
			return arm, fmt.Errorf("experiment: mreboot %s × %s: pre-op checkpoint: %w", mech.Key, policy, err)
		}
		arm.Requests++
		opErr := a.do()
		if opErr == nil {
			arm.Served++
			continue
		}
		if _, isFault := faultinject.AsFailure(opErr); !isFault {
			// A plain failure (e.g. state a rollback discarded): the request
			// is lost but there is nothing for generic recovery to engage.
			arm.Lost++
			continue
		}
		run.episode(a, preOp, opErr)
	}
	app.Stop()
	run.observeArm()
	return arm, nil
}

// lostWindow charges a full-outage window: window/interval concurrent
// arrivals hit a dead process and are lost. When outage is true the
// arrivals also count toward the goodput-dip denominator (recovery windows;
// detection windows hit every policy alike and are excluded).
func (r *mrebootRun) lostWindow(window time.Duration, outage bool) {
	k := int(window / arrivalInterval)
	r.arm.Requests += k
	r.arm.Lost += k
	if outage {
		r.arm.OutageArrivals += k
	}
}

// episode recovers one failed arrival with the arm's policy: detection
// window, then up to recoveryAttempts (recovery action, outage window, retry)
// rounds, then abandonment.
func (r *mrebootRun) episode(a mrebootArrival, preOp []byte, opErr error) {
	arm := r.arm
	arm.Episodes++
	start := r.env.Monotonic()
	r.rec.Begin(start, a.name, r.mech.Key)
	r.rec.Note(start, obsv.Span{Kind: obsv.SpanActivation, Note: opErr.Error()})

	// Detection: between the fault firing and recovery engaging nothing
	// serves, under every policy alike.
	r.env.Advance(detectLatency)
	r.lostWindow(detectLatency, false)

	recovered := recoverAttempts(r.rec, r.env, r.policy, recoveryAttempts, func(attempt int) string {
		act := r.action
		act.Attempt, act.Snapshot = attempt, preOp
		if act.Rung == recovery.RungMicroreboot && attempt > 1 {
			act.Rung = recovery.RungSubtreeReboot
		}
		if r.policy == "rollback" {
			act.Snapshot = r.epoch
		}
		target, _ := recovery.Apply(r.drv.app, act, r.outage)
		return target
	}, a.do) > 0
	end, outcome := r.env.Monotonic(), obsv.OutcomeLost
	if recovered {
		outcome = obsv.OutcomeRecovered
		arm.Served++
		arm.Recovered++
		arm.MTTRTotal += end - start
		r.rec.Note(end, obsv.Span{Kind: obsv.SpanRetry, Rung: r.policy, Outcome: "ok"})
		if r.tel != nil {
			r.tel.Registry.Histogram(MetricMRebootMTTRSeconds, obsv.LatencyBuckets,
				obsv.L("policy", r.policy, "class", r.mech.Class().Short())...).ObserveDuration(end - start)
		}
	} else {
		// The trigger is abandoned; make sure the process is alive for the
		// rest of the workload.
		arm.Lost++
		revive := preOp
		if r.action.Rung == recovery.RungMicroreboot {
			revive = nil // the crash-only tree revives in place
		}
		recovery.Revive(r.drv.app, revive)
	}
	r.rec.End(end, outcome, r.policy)
	if r.tel != nil {
		r.tel.Registry.Counter(MetricMRebootEpisodes,
			obsv.L("app", r.mech.App.String(), "policy", r.policy,
				"class", r.mech.Class().Short(), "outcome", outcome)...).Inc()
	}
}

// outage charges one recovery window. A process bounce costs
// procRestart, during which every arrival is lost. The arrivals that
// land inside a component reboot are driven through the partially down
// tree: those routed through a dead component fail fast and are lost, those
// through live siblings still serve.
func (r *mrebootRun) outage(target string, cost time.Duration) {
	if target == "" {
		r.env.Advance(procRestart)
		r.lostWindow(procRestart, true)
		return
	}
	k := int(cost / arrivalInterval)
	for i := 0; i < k; i++ {
		r.arm.Requests++
		r.arm.OutageArrivals++
		idx := r.bgIdx
		r.bgIdx++
		if r.drv.bg(idx) == nil {
			r.arm.Served++
			r.arm.OutageServed++
		} else {
			// Down components refuse the arrival; one that hits the active
			// fault instead is lost too, since the episode in progress
			// already owns recovery.
			r.arm.Lost++
		}
	}
}

// recoverAttempts runs up to n (recovery action, retry) rounds of one fault
// episode, the attempt loop MREBOOT, SCOPE and SERVE share. act applies the
// attempt's recovery action and names the component it targeted; retry
// re-runs the failed op. Each action and each failed retry is noted on rec
// (nil-safe). It returns the attempt whose retry succeeded, or 0 when none
// did.
func recoverAttempts(rec *obsv.Recorder, env *simenv.Env, rung string, n int, act func(attempt int) string, retry func() error) int {
	for attempt := 1; attempt <= n; attempt++ {
		target := act(attempt)
		rec.Note(env.Monotonic(), obsv.Span{Kind: obsv.SpanAction, Rung: rung,
			Attempt: attempt, Outcome: "ok", Component: target})
		err := retry()
		if err == nil {
			return attempt
		}
		rec.Note(env.Monotonic(), obsv.Span{Kind: obsv.SpanRetry, Rung: rung,
			Attempt: attempt, Outcome: "fail", Note: err.Error()})
	}
	return 0
}

// observeArm tallies the arm's component reboots and folds the terminal
// counters into its telemetry.
func (r *mrebootRun) observeArm() {
	tree := r.drv.app.Tree()
	for _, name := range tree.Names() {
		n := tree.Reboots(name)
		if n == 0 {
			continue
		}
		r.arm.Reboots += n
		if r.tel != nil {
			r.tel.Registry.Counter(MetricMRebootComponentReboots,
				obsv.L("app", r.mech.App.String(), "policy", r.policy, "component", name)...).Add(float64(n))
		}
	}
	if r.tel != nil && r.arm.Lost > 0 {
		r.tel.Registry.Counter(MetricMRebootRequestsLost,
			obsv.L("app", r.mech.App.String(), "policy", r.policy,
				"class", r.mech.Class().Short())...).Add(float64(r.arm.Lost))
	}
}

// cell sums the arms of one class under one policy into one arm.
func (r *MRebootReport) cell(class taxonomy.FaultClass, policy string) MRebootArm {
	var c MRebootArm
	for _, a := range r.Arms {
		if a.Class == class && a.Policy == policy {
			c.Requests += a.Requests
			c.Lost += a.Lost
			c.OutageArrivals += a.OutageArrivals
			c.OutageServed += a.OutageServed
			c.Episodes += a.Episodes
			c.Recovered += a.Recovered
			c.MTTRTotal += a.MTTRTotal
		}
	}
	return c
}

// LostBy aggregates requests lost across the arms of one class under one
// policy.
func (r *MRebootReport) LostBy(class taxonomy.FaultClass, policy string) (lost, requests int) {
	c := r.cell(class, policy)
	return c.Lost, c.Requests
}

// MTTRBy is the mean time to repair across one class's recovered episodes
// under one policy (0 when nothing recovered).
func (r *MRebootReport) MTTRBy(class taxonomy.FaultClass, policy string) time.Duration {
	return r.cell(class, policy).MTTR()
}

// Check asserts the sweep's headline claim — the microreboot argument made
// measurable: for environment-independent faults, rebooting only the faulty
// component must lose strictly fewer requests than restarting the process,
// and must repair faster wherever both mechanisms recovered anything.
func (r *MRebootReport) Check() error {
	ei := taxonomy.ClassEnvIndependent
	microLost, microReq := r.LostBy(ei, "microreboot")
	restartLost, restartReq := r.LostBy(ei, "restart")
	if microReq == 0 || restartReq == 0 {
		return fmt.Errorf("experiment: mreboot check: empty EI cell (%d/%d requests)", microReq, restartReq)
	}
	if microLost >= restartLost {
		return fmt.Errorf("experiment: mreboot check: EI requests lost %d (microreboot) not below %d (restart)",
			microLost, restartLost)
	}
	for _, class := range taxonomy.Classes() {
		micro, restart := r.MTTRBy(class, "microreboot"), r.MTTRBy(class, "restart")
		if micro > 0 && restart > 0 && micro >= restart {
			return fmt.Errorf("experiment: mreboot check: %s MTTR %s (microreboot) not below %s (restart)",
				class.Short(), micro, restart)
		}
	}
	return nil
}

// mrebootMTTRCell renders a mean repair time ("-" when nothing recovered).
func mrebootMTTRCell(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// String renders the class × policy aggregate and the headline.
func (r *MRebootReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MREBOOT sweep (seed %d, %d arms, %s arrivals):\n",
		r.Seed, len(r.Arms), arrivalInterval)
	tbl := &stats.Table{Header: []string{
		"class", "policy", "episodes", "recovered", "requests", "lost", "outage-served", "mttr"}}
	for _, class := range taxonomy.Classes() {
		for _, policy := range MRebootPolicies() {
			c := r.cell(class, policy)
			rec := stats.Proportion{Hits: c.Recovered, N: c.Episodes}
			good := stats.Proportion{Hits: c.OutageServed, N: c.OutageArrivals}
			tbl.Add(class.Short(), policy,
				fmt.Sprint(rec.N),
				fmt.Sprintf("%d/%d (%s)", rec.Hits, rec.N, rec.Percent()),
				fmt.Sprint(c.Requests), fmt.Sprint(c.Lost),
				fmt.Sprintf("%d/%d (%s)", good.Hits, good.N, good.Percent()),
				mrebootMTTRCell(c.MTTR()))
		}
	}
	b.WriteString(tbl.String())
	ei := taxonomy.ClassEnvIndependent
	microLost, _ := r.LostBy(ei, "microreboot")
	restartLost, _ := r.LostBy(ei, "restart")
	fmt.Fprintf(&b,
		"\nHeadline: for EI faults a targeted component microreboot loses %d requests where a\nprocess restart loses %d — the crash-only tree turns the same generic recovery into\na strictly cheaper outage, without fixing a single bug.\n",
		microLost, restartLost)
	return b.String()
}
