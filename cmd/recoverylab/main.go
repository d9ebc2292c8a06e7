// Command recoverylab runs one of the lab's experiments, prints its report,
// and exits non-zero when the experiment's gate fails. With no mode flag it
// runs the recovery-verification matrix: every corpus fault's executable
// reproduction under every recovery strategy.
//
// Every mode is one entry of the modes table in this file, which also
// generates the usage text: `recoverylab -h` lists each mode's selector flag
// and what its exit status gates. At most one mode flag may be given; a
// second mode, a stray argument, or a telemetry flag on a mode that records
// no telemetry is a usage error (exit status 2).
//
// Usage:
//
//	recoverylab                                 # the full 139-fault matrix
//	recoverylab -supervised -lee93 -csv out     # ... plus the supervision column, Lee93, CSV artifacts
//	recoverylab -mechanism httpd/dns-error      # one fault, all strategies
//	recoverylab -mreboot -metrics -trace m.jsonl -prom m.prom  # a gated sweep with its telemetry
//	recoverylab -durable -warehouse d.whs -haltafter 4  # run 4 arms, then halt (kill simulation)
//	recoverylab -durable -warehouse d.whs -resume       # finish a halted sweep byte-identically
//	recoverylab -checktrace m.jsonl             # validate a trace file's schema
//
// The telemetry flags (-metrics, -trace, -prom, -timeline) attach the
// observability layer (internal/obsv); OBSERVABILITY.md documents the metric
// catalogue and the trace schema. -workers shards every sweep with
// independent arms; output is byte-identical at every worker count
// (DESIGN.md §9).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"faultstudy"
	"faultstudy/internal/corpusgen"
	"faultstudy/internal/experiment"
	"faultstudy/internal/obsv"
	"faultstudy/internal/recovery"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// gated is a report whose Check() gates the exit status.
type gated interface {
	fmt.Stringer
	Check() error
}

// text is the report of a mode without a gate.
type text string

func (t text) String() string { return string(t) }

// noted is a gated report followed by the notices of the files its mode
// wrote.
type noted struct {
	gated
	notes string
}

func (n noted) String() string { return n.gated.String() + n.notes }

// mode is one experiment the command runs.
type mode struct {
	// flag names the selector flag; "" is the default matrix.
	flag string
	// telemetry reports whether the mode records telemetry, so the
	// telemetry flags apply to it.
	telemetry bool
	// gate says what the exit status gates ("" for none).
	gate string
	// run runs the experiment and returns its report: it is printed, and
	// when it is gated its Check() gates the exit status.
	run func() (fmt.Stringer, error)
}

// run parses args, runs the selected mode, and returns the exit status: 0
// on success, 1 when the mode fails or its gate does, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recoverylab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The mode selectors: the modes table reads them by name (selected).
	fs.Bool("supervised", false, "add the supervision-layer column to the matrix")
	fs.String("mechanism", "", "run one seeded bug (e.g. httpd/dns-error)")
	fs.Bool("soak", false, "soak all three apps under supervision with random faults active")
	fs.Bool("lint", false, "validate faultlint's static classification against the registry")
	fs.Bool("load", false, "run the ops-to-failure load sweep")
	fs.Bool("sensitivity", false, "run the classifier sensitivity sweep")
	fs.Bool("ablate", false, "run the retry and rejuvenation ablations")
	fs.Bool("resil", false, "run the RESIL chaos sweep: injected HTTP faults x client policies")
	fs.Bool("mreboot", false, "run the MREBOOT sweep: seeded bugs x recovery mechanisms on the component trees")
	fs.Bool("scope", false, "run the SCOPE experiment: static class/rung prediction vs dynamic ground truth")
	fs.Bool("serve", false, "run the SERVE experiment: open-loop traffic x the recovery ladder on daemonized apps")
	fs.Bool("corpus", false, "run the CORPUS experiment: a generated fault population through classification and the supervised ladder")
	fs.Bool("durable", false, "run the DURABLE experiment: crash matrix + device faults against the WAL store")
	fs.String("checktrace", "", "validate a JSONL episode trace file and exit")
	var (
		seed      = fs.Int64("seed", 42, "environment seed")
		workers   = fs.Int("workers", 0, "worker pool size for every sharded sweep: matrix, supervised, soak, lint, resil, mreboot, scope, serve, corpus, durable (0 = one per processor)")
		retries   = fs.Int("retries", 0, "retry budget per failure (0 = default 3)")
		steps     = fs.Bool("steps", false, "print each recovery step (with -mechanism)")
		lee93     = fs.Bool("lee93", false, "print the Lee & Iyer reconciliation")
		csvDir    = fs.String("csv", "", "directory to write CSV artifacts into")
		ops       = fs.Int("ops", 300, "base workload length per app (with -soak)")
		nfaults   = fs.Int("faults", 3, "seeded mechanisms activated per app (with -soak)")
		grow      = fs.Bool("grow", true, "let the supervisor apply the resource governor")
		maxPages  = fs.Int("maxpages", 0, "per-arm crawl page cap (with -resil; 0 = default)")
		users     = fs.Int("users", 0, "simulated user pool per arm (with -serve; 0 = default 1200)")
		arrive    = fs.String("arrive", "", "arrival process spec, poisson:<gap> or fixed:<gap> (with -serve; default poisson:1ms)")
		reqLog    = fs.String("reqlog", "", "write the per-request log to this file as JSONL (with -serve)")
		spec      = fs.String("spec", "", "corpus specification (with -corpus; empty = published-distribution defaults)")
		corpusOut = fs.String("corpusout", "", "write the generated population to this file as JSONL (with -corpus)")
		whPath    = fs.String("warehouse", "", "record finished arms in this resumable result store (with -durable)")
		resume    = fs.Bool("resume", false, "preload finished arms from the warehouse instead of rerunning them (with -durable)")
		haltAfter = fs.Int("haltafter", 0, "run only this many missing arms, then halt (with -durable; 0 = run everything)")
		metrics   = fs.Bool("metrics", false, "print the per-class recovery telemetry summary")
		timeline  = fs.Bool("timeline", false, "print human-readable episode timelines")
		traceOut  = fs.String("trace", "", "write the fault-episode trace to this file as JSONL")
		promOut   = fs.String("prom", "", "write the metrics registry to this file in Prometheus text format")
	)
	value := func(name string) string { return fs.Lookup(name).Value.String() }

	// The telemetry sinks are created only when some flag consumes them; a
	// nil telemetry keeps every instrumented path on its zero-cost branch.
	var tel *experiment.Telemetry
	supCfg := func() faultstudy.SupervisorConfig { return faultstudy.SupervisorConfig{GrowResources: *grow} }
	policy := func(w io.Writer) faultstudy.RecoveryPolicy {
		p := faultstudy.RecoveryPolicy{MaxRetries: *retries}
		if *steps {
			p.Trace = stepPrinter(w)
		}
		return p
	}
	matrix := func() (fmt.Stringer, error) {
		m, err := faultstudy.RunRecoveryMatrixWorkers(policy(stdout), *seed, *workers)
		if err == nil && selected(fs, "supervised") {
			err = m.AddSupervisedWorkers(*seed, supCfg(), tel, *workers)
		}
		if err != nil {
			return nil, err
		}
		out := m.String()
		if *lee93 {
			out += "\n" + faultstudy.CompareLee93(m).String()
		}
		if *csvDir != "" {
			n, err := writeCSV(m, *csvDir)
			if err != nil {
				return nil, err
			}
			out += fmt.Sprintf("\nwrote %d CSV artifacts to %s\n", n, *csvDir)
		}
		return text(out), nil
	}

	modes := []mode{
		{flag: "", run: matrix},
		{flag: "supervised", telemetry: true, run: matrix},
		{flag: "mechanism", telemetry: true, run: func() (fmt.Stringer, error) {
			var b strings.Builder
			err := runOne(&b, value("mechanism"), policy(&b), *seed, tel)
			return text(b.String()), err
		}},
		{flag: "soak", telemetry: true, run: func() (fmt.Stringer, error) {
			results, err := faultstudy.RunSoak(faultstudy.SoakConfig{
				Ops: *ops, Faults: *nfaults, Seed: *seed,
				Supervise: supCfg(), Telemetry: tel, Workers: *workers,
			})
			if err != nil {
				return nil, err
			}
			return text(faultstudy.RenderSoak(results) + "\n"), nil
		}},
		{flag: "lint", run: func() (fmt.Stringer, error) {
			root, err := experiment.ModuleRoot()
			if err != nil {
				return nil, err
			}
			return experiment.RunLintWorkers(root, *workers)
		}},
		{flag: "load", run: func() (fmt.Stringer, error) {
			points, err := experiment.RunOpsToFailure(5000, *seed)
			if err != nil {
				return nil, err
			}
			return text(experiment.RenderOpsToFailure(points)), nil
		}},
		{flag: "sensitivity", run: func() (fmt.Stringer, error) {
			points := experiment.RunClassifierSensitivity([]float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0})
			return text(experiment.RenderSensitivity(points)), nil
		}},
		{flag: "ablate", run: func() (fmt.Stringer, error) {
			retry, err := experiment.RunRetryAblation(5, *seed)
			if err != nil {
				return nil, err
			}
			rejuv, err := experiment.RunRejuvenationAblation([]int{0, 16, 32, 64, 128}, *seed)
			if err != nil {
				return nil, err
			}
			reclaim, err := experiment.RunReclaimAblation(*seed)
			if err != nil {
				return nil, err
			}
			mit, err := experiment.RunMitigationAblation(*seed)
			if err != nil {
				return nil, err
			}
			return text(strings.Join([]string{retry.String(), rejuv.String(), reclaim.String(), mit.String()}, "\n")), nil
		}},
		{flag: "resil", telemetry: true,
			gate: "the full client policy survives at least 90% of transient (EDT) chaos and at most 10% of nontransient (EDN) chaos",
			run: func() (fmt.Stringer, error) {
				return experiment.RunResil(experiment.ResilConfig{
					Seed: *seed, MaxPages: *maxPages, Telemetry: tel, Workers: *workers,
				})
			}},
		{flag: "mreboot", telemetry: true,
			gate: "on environment-independent faults, targeted component microreboots lose strictly fewer requests than process restarts, and repair faster wherever both recovered anything",
			run: func() (fmt.Stringer, error) {
				return experiment.RunMReboot(experiment.MRebootConfig{Seed: *seed, Telemetry: tel, Workers: *workers})
			}},
		{flag: "scope", telemetry: true,
			gate: "the static analysis recovers the fault class of at least 85% of the seeded mechanisms and under-scopes the recovery rung on at most 5% of the environment-independent ones",
			run: func() (fmt.Stringer, error) {
				return experiment.RunScope(experiment.ScopeConfig{Seed: *seed, Telemetry: tel, Workers: *workers})
			}},
		{flag: "serve", telemetry: true,
			gate: "on environment-independent faults under sustained open-loop traffic, a targeted component microreboot burns strictly less SLO error budget than a whole-process restart (SERVING.md)",
			run: func() (fmt.Stringer, error) {
				rep, err := experiment.RunServe(experiment.ServeConfig{
					Seed: *seed, Users: *users, Arrival: *arrive, Telemetry: tel, Workers: *workers,
				})
				if err != nil || *reqLog == "" {
					return rep, err
				}
				if err := writeFile(*reqLog, rep.WriteRequestLog); err != nil {
					return nil, err
				}
				return noted{rep, fmt.Sprintf("\nwrote %d request records to %s\n", len(rep.Arms)*rep.Requests, *reqLog)}, nil
			}},
		{flag: "corpus", telemetry: true,
			gate: "every sampler fits its declared distribution (chi-squared, alpha 0.001), the classifier recovers the sampled fault classes, per-class recovery rates stay within the drift band of the mechanism-matched curated baseline, and the synthetic PR site reaches its page floor and crawls without gaps",
			run: func() (fmt.Stringer, error) {
				rep, err := experiment.RunCorpus(experiment.CorpusConfig{
					Seed: *seed, Spec: *spec, Supervise: supCfg(), Telemetry: tel, Workers: *workers,
				})
				if err != nil || *corpusOut == "" {
					return rep, err
				}
				parsed, err := corpusgen.ParseCorpusSpec(*spec)
				if err == nil {
					c := corpusgen.New(parsed, *seed)
					err = writeFile(*corpusOut, func(w io.Writer) error { return c.WriteJSONL(w, *workers) })
				}
				if err != nil {
					return nil, err
				}
				return noted{rep, fmt.Sprintf("\nwrote %d faults and %d episodes to %s\n", parsed.Faults, parsed.Episodes, *corpusOut)}, nil
			}},
		{flag: "durable", telemetry: true,
			gate: "no acknowledged record is lost silently, no corruption goes undetected, every episode's store recovers to a writable state, and the one deliberate torn-write device lie is detected and bounded; a -haltafter run that halts exits 0",
			run: func() (fmt.Stringer, error) {
				return experiment.RunDurable(experiment.DurableConfig{
					Seed: *seed, Telemetry: tel, Workers: *workers,
					Warehouse: *whPath, Resume: *resume, HaltAfter: *haltAfter,
				})
			}},
		{flag: "checktrace", gate: "the trace is non-empty and every line parses against the episode schema",
			run: func() (fmt.Stringer, error) { return checkTraceFile(value("checktrace")) }},
	}
	fs.Usage = func() { usage(fs, modes) }

	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	wantTel := *metrics || *traceOut != "" || *promOut != "" || *timeline
	m, err := selectMode(fs, modes, wantTel)
	if err != nil {
		fmt.Fprintf(stderr, "recoverylab: %v (see recoverylab -h)\n", err)
		return 2
	}
	if wantTel {
		tel = experiment.NewTelemetry()
	}
	rep, err := m.run()
	if err == nil {
		fmt.Fprint(stdout, rep)
		err = emitTelemetry(stdout, tel, *metrics, *timeline, *traceOut, *promOut)
	}
	if g, ok := rep.(gated); ok && err == nil {
		err = g.Check()
	}
	if err != nil {
		fmt.Fprintln(stderr, "recoverylab:", err)
		return 1
	}
	return 0
}

// selected reports whether a selector flag was given a non-zero value.
func selected(fs *flag.FlagSet, name string) bool {
	v := fs.Lookup(name).Value.String()
	return v != "" && v != "false"
}

// selectMode returns the one mode the parsed flags select, or a usage error
// for stray arguments, two modes at once, or telemetry flags on a mode that
// records none.
func selectMode(fs *flag.FlagSet, modes []mode, wantTel bool) (*mode, error) {
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q: modes are selected by flag", fs.Arg(0))
	}
	chosen := &modes[0]
	for i := range modes[1:] {
		m := &modes[i+1]
		if !selected(fs, m.flag) {
			continue
		}
		if chosen.flag != "" {
			return nil, fmt.Errorf("-%s and -%s select different modes; give one", chosen.flag, m.flag)
		}
		chosen = m
	}
	if wantTel && !chosen.telemetry {
		name := "the matrix without -supervised"
		if chosen.flag != "" {
			name = "-" + chosen.flag
		}
		return nil, fmt.Errorf("%s records no telemetry, so -metrics, -timeline, -trace and -prom do not apply", name)
	}
	return chosen, nil
}

// usage prints the mode table, then every flag.
func usage(fs *flag.FlagSet, modes []mode) {
	w := fs.Output()
	fmt.Fprintln(w, "Usage: recoverylab [mode flag] [options]")
	fmt.Fprintln(w, "\nModes (at most one; with none, the recovery matrix runs):")
	for _, m := range modes[1:] {
		tele := ""
		if m.telemetry {
			tele = " [records telemetry]"
		}
		fmt.Fprintf(w, "  -%s%s\n    \t%s\n", m.flag, tele, fs.Lookup(m.flag).Usage)
		if m.gate != "" {
			fmt.Fprintf(w, "    \texits 1 unless %s\n", m.gate)
		}
	}
	fmt.Fprintln(w, "\nOptions:")
	fs.PrintDefaults()
}

// emitTelemetry renders whatever telemetry outputs were requested after the
// selected experiment ran.
func emitTelemetry(w io.Writer, tel *experiment.Telemetry, metrics, timeline bool, traceOut, promOut string) error {
	if tel == nil {
		return nil
	}
	if metrics {
		fmt.Fprintln(w)
		fmt.Fprint(w, tel.Summary())
	}
	if timeline {
		fmt.Fprintln(w)
		if err := tel.WriteTimeline(w); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := writeFile(traceOut, tel.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %d episodes to %s\n", len(tel.Episodes()), traceOut)
	}
	if promOut != "" {
		if err := writeFile(promOut, tel.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics to %s\n", promOut)
	}
	return nil
}

// writeCSV writes the matrix's CSV artifacts into dir and returns how many
// it wrote.
func writeCSV(m *faultstudy.RecoveryMatrix, dir string) (int, error) {
	files, err := faultstudy.ExportArtifacts(m)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return 0, err
		}
	}
	return len(files), nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkTraceFile validates a JSONL episode trace: every line parses against
// the documented schema and the file is non-empty.
func checkTraceFile(path string) (fmt.Stringer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	episodes, err := obsv.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("checktrace %s: %w", path, err)
	}
	if len(episodes) == 0 {
		return nil, fmt.Errorf("checktrace %s: trace is empty", path)
	}
	spans := 0
	for _, e := range episodes {
		spans += len(e.Spans)
	}
	return text(fmt.Sprintf("trace OK: %d episodes, %d spans\n", len(episodes), spans)), nil
}

// stepPrinter is the -steps trace hook: one line per recovery step.
func stepPrinter(w io.Writer) func(recovery.Event) {
	return func(ev recovery.Event) {
		if ev.Err != nil {
			fmt.Fprintf(w, "    [%s] %s (attempt %d): %v\n", ev.Kind, ev.Op, ev.Attempt, ev.Err)
		} else {
			fmt.Fprintf(w, "    [%s] %s (attempt %d)\n", ev.Kind, ev.Op, ev.Attempt)
		}
	}
}

// runOne runs one mechanism under every strategy, instrumenting each run when
// telemetry is enabled.
func runOne(w io.Writer, mechanism string, policy faultstudy.RecoveryPolicy, seed int64, tel *experiment.Telemetry) error {
	for _, strat := range recovery.Strategies() {
		app, sc, err := faultstudy.BuildScenario(mechanism, seed)
		if err != nil {
			return err
		}
		runPolicy := policy
		var obs *obsv.Observer
		if tel != nil {
			mech, _ := experiment.CorpusRegistry().Lookup(mechanism)
			obs = obsv.NewObserver(tel.Registry, tel.Recorder, obsv.Context{
				App:     mech.App.String(),
				FaultID: mechanism,
				Class:   experiment.ClassFor(mechanism),
			})
			runPolicy.Trace = obs.Trace(policy.Trace)
		}
		out, err := faultstudy.NewRecoveryManager(runPolicy).Run(app, sc, strat)
		if err != nil {
			return err
		}
		obs.Flush(app.Env().Monotonic())
		status := "LOST"
		if out.Survived {
			status = "survived"
		}
		fmt.Fprintf(w, "%-18s %-9s failures=%d recoveries=%d attempts=%d",
			strat, status, out.Failures, out.Recoveries, out.Attempts)
		if out.FirstFailure != nil {
			fmt.Fprintf(w, "  first failure: %s", out.FirstFailure.Msg)
		}
		fmt.Fprintln(w)
	}
	return nil
}
