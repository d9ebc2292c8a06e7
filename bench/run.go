package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// Options configures one benchmark invocation.
type Options struct {
	// Workloads names the workloads to run, in order.
	Workloads []string
	// Seed is the first iteration's seed.
	Seed int64
	// Seconds is each workload's timed-loop length. A traced invocation
	// gives half to the untraced child and half to the traced one.
	Seconds float64
	// Traced adds the profiled run and reports per-layer metrics.
	Traced bool
	// SpanDir receives the traced run's span JSONL files.
	SpanDir string
	// Exe is the labbench binary children are started from.
	Exe string
	// Stdout receives the report and, last, the result line; Stderr the
	// children's diagnostics.
	Stdout, Stderr io.Writer
}

// Result is the benchmark's last output line.
type Result struct {
	// Correct is true when no iteration failed and every output checked.
	Correct bool `json:"correct"`
	// Attempted counts iterations over every child.
	Attempted int `json:"attempted"`
	// Failed counts the attempted iterations that failed.
	Failed int `json:"failed"`
	// Metrics maps each metric (prefixed "<workload>/" when several
	// workloads ran) to its value and unit.
	Metrics map[string]Value `json:"metrics"`
}

// Value is one reported metric.
type Value struct {
	// Value is the measured number.
	Value float64 `json:"value"`
	// Unit is its unit.
	Unit string `json:"unit"`
}

// setupSamples is how many extra set-up-only children each workload starts
// to measure setup_s: a set-up takes a few milliseconds and varies by a
// third from one to the next, so only the median of many repeats from run
// to run.
const setupSamples = 20

// childArgs are the hidden flags that make labbench a measuring child.
func childArgs(name string, seed int64, seconds float64, traced, setupOnly bool, spans string) []string {
	args := []string{"-child", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1", "-spans", spans)
	}
	if setupOnly {
		args = append(args, "-setuponly")
	}
	return args
}

// Child runs one measurement in this process, as a child started by Run: it
// writes "ready" to stdout when set-up is done, then the Measurement as one
// JSON line. A traced child also writes its spans as JSONL to spanPath.
func Child(name string, cfg Config, setupOnly bool, spanPath string, stdout io.Writer) error {
	w, err := Lookup(name)
	if err != nil {
		return err
	}
	ready := func() { fmt.Fprintln(stdout, "ready") }
	if setupOnly {
		_, release, err := w.Setup()
		if err != nil {
			return err
		}
		ready()
		release()
		return nil
	}
	cfg.Ready = ready
	m, err := Measure(w, cfg)
	if err != nil {
		return err
	}
	if cfg.Traced && spanPath != "" {
		if err := writeSpans(spanPath, m.Spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(m)
}

// writeSpans writes spans as JSONL to path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: create span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := WriteSpansJSONL(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: write span file: %w", err)
	}
	return f.Close()
}

// childRun is what the parent learns from one child.
type childRun struct {
	m      *Measurement
	setupS float64 // start of the process to "ready"
}

// spawn starts one child, times its set-up, waits for it to exit and reads
// its measurement (nil for a set-up-only child).
func spawn(ctx context.Context, exe string, args []string, stderr io.Writer) (childRun, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", Workers))
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := now()
	if err := cmd.Start(); err != nil {
		return childRun{}, fmt.Errorf("bench: start child: %w", err)
	}
	r := bufio.NewReader(stdout)
	line, rerr := r.ReadString('\n')
	setup := now().Sub(start)
	rest, _ := io.ReadAll(r)
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" {
		return childRun{}, fmt.Errorf("bench: child %v did not become ready: %v", args, werr)
	}
	if werr != nil {
		return childRun{}, fmt.Errorf("bench: child %v: %w", args, werr)
	}
	run := childRun{setupS: setup.Seconds()}
	if rest = bytes.TrimSpace(rest); len(rest) > 0 {
		run.m = &Measurement{}
		if err := json.Unmarshal(rest, run.m); err != nil {
			return childRun{}, fmt.Errorf("bench: child %v result: %w", args, err)
		}
	}
	return run, nil
}

// Run measures each workload in its own child processes, prints the host
// stamp and every metric by name with its unit, and ends stdout with the
// Result line. It reports whether every output was correct.
func Run(ctx context.Context, opts Options) (bool, error) {
	out := opts.Stdout
	fmt.Fprintln(out, hostStamp(opts.Seed))
	res := Result{Correct: true, Metrics: map[string]Value{}}
	for _, name := range opts.Workloads {
		if _, err := Lookup(name); err != nil {
			return false, err
		}
		spans := filepath.Join(opts.SpanDir, "labbench-spans-"+name+".jsonl")
		if opts.Traced {
			if err := os.MkdirAll(opts.SpanDir, 0o755); err != nil {
				return false, fmt.Errorf("bench: span directory: %w", err)
			}
		}
		seconds := opts.Seconds
		if opts.Traced {
			seconds /= 2
		}

		var setups []float64
		for k := 0; k < setupSamples; k++ {
			run, err := spawn(ctx, opts.Exe, childArgs(name, opts.Seed, seconds, false, true, ""), opts.Stderr)
			if err != nil {
				return false, err
			}
			setups = append(setups, run.setupS)
		}
		plain, err := spawn(ctx, opts.Exe, childArgs(name, opts.Seed, seconds, false, false, ""), opts.Stderr)
		if err == nil && plain.m == nil {
			err = fmt.Errorf("bench: %s child sent no result", name)
		}
		if err != nil {
			return false, err
		}
		setups = append(setups, plain.setupS)
		runs := []*Measurement{plain.m}
		e2e := endToEnd(plain.m, setups)
		metrics := e2e
		var layers map[string]float64
		if opts.Traced {
			traced, err := spawn(ctx, opts.Exe, childArgs(name, opts.Seed, seconds, true, false, spans), opts.Stderr)
			if err == nil && traced.m == nil {
				err = fmt.Errorf("bench: %s traced child sent no result", name)
			}
			if err != nil {
				return false, err
			}
			runs = append(runs, traced.m)
			layers = traced.m.Layers
			untracedRate, tracedRate := e2e["units_per_s"], endToEnd(traced.m, nil)["units_per_s"]
			layers["bench.trace_overhead_pct"] = 100 * ratio(untracedRate-tracedRate, untracedRate)
			metrics = layers
		}

		printWorkload(out, plain.m, runs, e2e, len(setups), layers, spans)
		for _, m := range runs {
			res.Attempted += m.Attempted
			res.Failed += m.Failed
			res.Correct = res.Correct && m.Failed == 0 && len(m.Timings) > 0
		}
		list := EndToEnd
		if opts.Traced {
			list = PerLayer()
		}
		for _, mt := range list {
			key := mt.Name
			if len(opts.Workloads) > 1 {
				key = name + "/" + key
			}
			v := metrics[mt.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v, res.Correct = 0, false
			}
			res.Metrics[key] = Value{Value: v, Unit: mt.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(line))
	return res.Correct, nil
}

// endToEnd computes the end-to-end metrics from one untraced measurement and
// its set-up times: medians over the timed iterations and over the set-ups.
func endToEnd(m *Measurement, setups []float64) map[string]float64 {
	var rate, cpu, alloc, mallocs, rss []float64
	for _, s := range m.Timings {
		rate = append(rate, float64(s.Units)/s.WallS)
		cpu = append(cpu, s.CPUS)
		alloc = append(alloc, s.AllocB/1e6)
		mallocs = append(mallocs, s.Mallocs/1e3)
		rss = append(rss, s.PeakRSSB/1e6)
	}
	return map[string]float64{
		"setup_s":     Median(setups),
		"units_per_s": Median(rate),
		"cpu_s":       Median(cpu),
		"alloc_mb":    Median(alloc),
		"allocs_k":    Median(mallocs),
		"peak_rss_mb": Median(rss),
	}
}

// printWorkload writes one workload's human-readable report.
func printWorkload(out io.Writer, plain *Measurement, runs []*Measurement, e2e map[string]float64, setups int, layers map[string]float64, spans string) {
	name := plain.Workload
	if d := plain.Digests; d != nil {
		fmt.Fprintf(out, "%s: determinism pass identical at 1 and %d workers:", name, Workers)
		empty := fmt.Sprintf("%x", sha256.Sum256(nil))
		for _, k := range []string{"report", "trace", "prom"} {
			if d[k] != empty {
				fmt.Fprintf(out, " %s sha256:%s", k, d[k])
			}
		}
		fmt.Fprintln(out)
	}
	attempted, failed := 0, 0
	for _, m := range runs {
		attempted += m.Attempted
		failed += m.Failed
		for _, e := range m.Errors {
			fmt.Fprintf(out, "%s: FAILED: %s\n", name, e)
		}
	}
	fmt.Fprintf(out, "%s: %d timed iterations; %d attempted, %d failed (failed_ratio %s)\n",
		name, len(plain.Timings), attempted, failed, strconv.FormatFloat(ratio(float64(failed), float64(attempted)), 'g', 4, 64))
	for _, mt := range EndToEnd {
		note := "per iteration, median"
		switch mt.Name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", setups)
		case "units_per_s":
			note = plain.Unit + " per second, median over iterations"
		}
		fmt.Fprintf(out, "  %-14s %14.6g %-6s %s\n", mt.Name, e2e[mt.Name], mt.Unit, note)
	}
	if layers == nil {
		return
	}
	fmt.Fprintf(out, "%s: per-layer metrics (traced run, per iteration unless a ratio); spans in %s\n", name, spans)
	for _, mt := range PerLayer() {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", mt.Name, layers[mt.Name], mt.Unit)
	}
}

// hostStamp describes the host and build the numbers were taken on.
func hostStamp(seed int64) string {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	stamp := fmt.Sprintf("labbench host: nproc=%d gomaxprocs=%d workers=%d go=%s vcs.revision=%s seed=%d",
		runtime.NumCPU(), Workers, Workers, runtime.Version(), rev, seed)
	if runtime.NumCPU() < Workers {
		stamp += " host_underprovisioned"
	}
	return stamp
}

// ParseWorkloads expands a comma-separated workload list; "all" names every
// workload.
func ParseWorkloads(list string) ([]string, error) {
	if list == "all" {
		var names []string
		for _, w := range Workloads() {
			names = append(names, w.Name)
		}
		return names, nil
	}
	names := strings.Split(list, ",")
	for _, n := range names {
		if _, err := Lookup(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}
