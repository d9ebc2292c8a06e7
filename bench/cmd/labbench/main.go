// Command labbench is the repository's benchmark. It runs the recovery lab's
// and the mining pipeline's workloads, each in its own child process with
// GOMAXPROCS=2 and two workers, checks every output, and prints every
// end-to-end metric by name with its unit; with -trace 1 it adds a profiled
// run that reports per-layer metrics and writes span JSONL.
//
// Usage:
//
//	labbench [-workload all|corpus,serve,recover,mine] [-seed 42] [-seconds 20] [-trace 0|1]
//	labbench compare -parent 'runs/parent-*.txt' -change 'runs/change-*.txt' [-benchmark BENCHMARK.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any Check gate, the mine workload's Tables 1–3, or the determinism pass's
// byte identity fails. compare applies the BENCHMARK.json bounds to two
// sets of saved outputs and exits non-zero when any metric regressed. See
// bench/README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"faultstudy/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "labbench:", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "labbench: some outputs were wrong; see FAILED lines")
		os.Exit(1)
	}
}

// deadline bounds a whole invocation: children still running then are
// killed, so the command ends within three minutes.
const deadline = 170 * time.Second

func run() (bool, error) {
	var (
		workloads = flag.String("workload", "all", "comma-separated workloads to run: corpus, serve, recover, mine, or all")
		seed      = flag.Int64("seed", 42, "first iteration's seed; iteration i uses seed+i")
		seconds   = flag.Float64("seconds", 20, "length of each workload's timed loop")
		trace     = flag.Int("trace", 0, "1 adds the profiled run and reports per-layer metrics in the result line")
		spanDir   = flag.String("spandir", ".bench_build", "directory the traced run's span JSONL files go to")
		child     = flag.String("child", "", "internal: measure this workload in this process")
		setupOnly = flag.Bool("setuponly", false, "internal: with -child, stop after set-up")
		spans     = flag.String("spans", "", "internal: with -child, the span JSONL file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *child != "" {
		cfg := bench.Config{Seed: *seed, Seconds: *seconds, MinIters: 3, Traced: *trace == 1}
		return true, bench.Child(*child, cfg, *setupOnly, *spans, os.Stdout)
	}
	names, err := bench.ParseWorkloads(*workloads)
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	return bench.Run(ctx, bench.Options{
		Workloads: names, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
		SpanDir: *spanDir, Exe: exe,
		Stdout: os.Stdout, Stderr: os.Stderr,
	})
}

// compare runs the comparator subcommand and returns the exit code: 0, 1
// when a metric regressed, 2 on bad input.
func compare(args []string) int {
	regressed, err := runCompare(args)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "labbench compare:", err)
		return 2
	case regressed:
		return 1
	}
	return 0
}

// runCompare prints one row per metric and reports whether any regressed.
func runCompare(args []string) (bool, error) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	parent := fs.String("parent", "", "glob of the parent commit's saved outputs")
	change := fs.String("change", "", "glob of the change's saved outputs, paired with -parent in sorted order")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	bounds, err := bench.ReadBounds(*spec)
	if err != nil {
		return false, err
	}
	p, err := readResults(*parent)
	if err != nil {
		return false, err
	}
	c, err := readResults(*change)
	if err != nil {
		return false, err
	}
	rows, err := bench.Compare(p, c, bounds)
	if err != nil {
		return false, err
	}
	fmt.Printf("%-34s %12s %-16s  %12s %-16s  %-28s %-5s %s\n",
		"metric", "parent", "[q1, q3]", "change", "[q1, q3]", "change vs parent", "wins", "verdict")
	regressed := false
	for _, r := range rows {
		fmt.Println(r)
		regressed = regressed || r.Verdict == "regressed"
	}
	return regressed, nil
}

// readResults reads every saved output matching pattern, in sorted order.
func readResults(pattern string) ([]bench.Result, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, errors.New("no files match " + pattern)
	}
	var out []bench.Result
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		r, err := bench.ReadResult(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}
