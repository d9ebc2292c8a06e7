package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Config is one measured run of one workload inside the current process.
type Config struct {
	// Seed is the first iteration's seed; iteration i draws from Seed+i.
	Seed int64
	// Seconds is how long the timed loop runs.
	Seconds float64
	// MinIters is the fewest timed iterations, however long they take.
	MinIters int
	// Traced profiles the timed loop and records spans.
	Traced bool
	// Ready, when set, is called once set-up has finished.
	Ready func()
}

// Timing is one timed iteration's cost.
type Timing struct {
	// Units is the work done, in the workload's unit.
	Units int `json:"units"`
	// WallS is the iteration's elapsed time.
	WallS float64 `json:"wall_s"`
	// CPUS is the process's user plus system CPU time, GC included.
	CPUS float64 `json:"cpu_s"`
	// AllocB is the bytes heap-allocated.
	AllocB float64 `json:"alloc_b"`
	// Mallocs is the objects heap-allocated.
	Mallocs float64 `json:"mallocs"`
	// GCCycles counts the garbage collections completed.
	GCCycles float64 `json:"gc_cycles"`
	// PeakRSSB is the process's peak resident set during the iteration, in
	// bytes.
	PeakRSSB float64 `json:"peak_rss_b"`
}

// Measurement is everything one workload run produced.
type Measurement struct {
	// Workload is the workload's name.
	Workload string `json:"workload"`
	// Unit is what the workload's units count.
	Unit string `json:"unit"`
	// Attempted counts iterations, the determinism pass included.
	Attempted int `json:"attempted"`
	// Failed counts the attempted iterations that failed.
	Failed int `json:"failed"`
	// Errors holds the first few failures' messages.
	Errors []string `json:"errors,omitempty"`
	// Digests are the sha256 digests of the determinism pass's report,
	// trace and Prometheus outputs.
	Digests map[string]string `json:"digests,omitempty"`
	// Timings holds every successful timed iteration.
	Timings []Timing `json:"timings"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Spans holds a traced run's spans; it is written to its own file,
	// not sent with the result.
	Spans []Span `json:"-"`
}

// fail counts one failed iteration, keeping the first messages.
func (m *Measurement) fail(err error) {
	m.Failed++
	if len(m.Errors) < 5 {
		m.Errors = append(m.Errors, err.Error())
	}
}

// Measure sets up w in this process, runs its determinism pass, then its
// timed loop: closed-loop iterations, one after another, until cfg.Seconds
// have passed and at least cfg.MinIters have run.
func Measure(w Workload, cfg Config) (*Measurement, error) {
	if cfg.Traced {
		runtime.MemProfileRate = 64 << 10
	}
	body, release, err := w.Setup()
	if err != nil {
		return nil, fmt.Errorf("bench: set up %s: %w", w.Name, err)
	}
	defer release()
	if cfg.Ready != nil {
		cfg.Ready()
	}
	next := w.NextSeed
	if next == nil {
		next = func(s int64) (int64, error) { return s, nil }
	}

	m := &Measurement{Workload: w.Name, Unit: w.Unit}
	seed, err := next(cfg.Seed)
	if err != nil {
		return nil, err
	}
	m.determinism(body, seed)

	var tr *tracing
	if cfg.Traced {
		if tr, err = startTracing(); err != nil {
			return nil, err
		}
	}
	start := now()
	for i := 0; i < cfg.MinIters || now().Sub(start).Seconds() < cfg.Seconds; i++ {
		if seed, err = next(seed); err != nil {
			return nil, err
		}
		it := &Iteration{Seed: seed, Workers: Workers, Out: discard}
		if tr != nil {
			tr.spans.iter = i
			it.spans = tr.spans
		}
		s, work, err := timed(body, it)
		m.Attempted++
		if err != nil {
			m.fail(fmt.Errorf("seed %d: %w", seed, err))
		} else {
			m.Timings = append(m.Timings, s)
			if tr != nil {
				tr.add(work, s)
			}
		}
		seed++
	}
	if tr != nil {
		wall := now().Sub(start)
		if m.Layers, err = tr.finish(wall); err != nil {
			return nil, err
		}
		m.Spans = tr.spans.List()
	}
	return m, nil
}

// discard is the timed iterations' output: bytes are produced, then dropped.
var discard = Outputs{Report: io.Discard, Trace: io.Discard, Prom: io.Discard}

// determinism runs seed at one worker and at Workers and requires the
// report, trace and Prometheus outputs to be byte-identical (compared by
// sha256) — the lab's determinism contract. Both runs count as attempts.
func (m *Measurement) determinism(body Body, seed int64) {
	digests := func(workers int) (map[string]string, error) {
		hs := map[string]hash.Hash{"report": sha256.New(), "trace": sha256.New(), "prom": sha256.New()}
		it := &Iteration{Seed: seed, Workers: workers, Out: Outputs{Report: hs["report"], Trace: hs["trace"], Prom: hs["prom"]}}
		if _, err := body(it); err != nil {
			return nil, fmt.Errorf("determinism pass, seed %d, %d worker(s): %w", seed, workers, err)
		}
		out := map[string]string{}
		for k, h := range hs {
			out[k] = fmt.Sprintf("%x", h.Sum(nil))
		}
		return out, nil
	}
	serial, err1 := digests(1)
	parallel, err2 := digests(Workers)
	m.Attempted += 2
	for _, err := range []error{err1, err2} {
		if err != nil {
			m.fail(err)
		}
	}
	if err1 != nil || err2 != nil {
		return
	}
	for _, k := range []string{"report", "trace", "prom"} {
		if serial[k] != parallel[k] {
			m.fail(fmt.Errorf("determinism pass, seed %d: %s differs between 1 and %d workers (%.12s vs %.12s)",
				seed, k, Workers, serial[k], parallel[k]))
		}
	}
	m.Digests = parallel
}

// timed runs one iteration and measures its wall time, process CPU time,
// heap allocation and peak resident set.
func timed(body Body, it *Iteration) (Timing, Work, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := resetPeakRSS(); err != nil {
		return Timing{}, Work{}, err
	}
	cpu0 := processCPU()
	root := it.spans.begin(spanIteration, "", 0)
	it.root = root
	start := now()
	work, err := body(it)
	wall := now().Sub(start)
	it.spans.end(root)
	cpu1 := processCPU()
	runtime.ReadMemStats(&ms1)
	rss, rerr := peakRSS()
	if err == nil {
		err = rerr
	}
	return Timing{
		Units:    work.Units,
		WallS:    wall.Seconds(),
		CPUS:     cpu1 - cpu0,
		AllocB:   float64(ms1.TotalAlloc - ms0.TotalAlloc),
		Mallocs:  float64(ms1.Mallocs - ms0.Mallocs),
		GCCycles: float64(ms1.NumGC - ms0.NumGC),
		PeakRSSB: rss,
	}, work, err
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set (Linux 4.0 and later), so that peakRSS reads the peak
// since now. The process's lifetime maximum is a single extreme value that
// swings with GC timing; per-iteration peaks have a steady median.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("bench: reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in bytes.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", v, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: /proc/self/status has no VmHWM")
}

// now reads the real clock — the benchmark's one wall-clock seam. It
// measures elapsed time only; no output the benchmark compares depends on it.
func now() time.Time {
	return time.Now() //faultlint:ignore wallclock real elapsed time is what the benchmark measures
}

// processCPU returns the process's user plus system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// tracing holds a traced run's profiles, spans and counts.
type tracing struct {
	cpu    bytes.Buffer
	allocs *Profile // allocation profile when the timed loop started
	spans  *Spans
	counts map[string]float64
	iters  int
	gc     float64
}

// startTracing snapshots the allocation profile and starts CPU profiling.
func startTracing() (*tracing, error) {
	tr := &tracing{spans: NewSpans(), counts: map[string]float64{}}
	var err error
	if tr.allocs, err = allocProfile(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&tr.cpu); err != nil {
		return nil, fmt.Errorf("bench: start CPU profile: %w", err)
	}
	return tr, nil
}

// add accumulates one successful iteration's counts.
func (tr *tracing) add(w Work, s Timing) {
	tr.iters++
	tr.gc += s.GCCycles
	for k, v := range w.Counts {
		tr.counts[k] += v
	}
}

// allocProfile forces a collection, so the heap profile is current, and
// decodes it.
func allocProfile() (*Profile, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("bench: write allocation profile: %w", err)
	}
	return DecodeProfile(&buf)
}

// finish stops profiling and computes the per-layer metrics over the timed
// loop, which took wall.
func (tr *tracing) finish(wall time.Duration) (map[string]float64, error) {
	pprof.StopCPUProfile()
	cpu, err := DecodeProfile(&tr.cpu)
	if err != nil {
		return nil, err
	}
	allocs, err := allocProfile()
	if err != nil {
		return nil, err
	}
	col := cpu.ValueIndex("cpu")
	acol, bcol := allocs.ValueIndex("alloc_space"), tr.allocs.ValueIndex("alloc_space")
	if col < 0 || acol < 0 || bcol < 0 {
		return nil, fmt.Errorf("bench: profiles lack cpu or alloc_space columns")
	}
	n := float64(max(tr.iters, 1))
	c := Attribute(cpu, col)
	after, before := Attribute(allocs, acol), Attribute(tr.allocs, bcol)
	spanTotal := map[string]float64{}
	for _, sp := range tr.spans.List() {
		spanTotal[sp.Name] += float64(sp.EndUS-sp.StartUS) / 1e6
	}

	out := map[string]float64{}
	for _, m := range perLayer {
		var v float64
		switch {
		case m.self != "":
			v = c.Self[m.self] / 1e9 / n
		case m.funcs != nil:
			v = c.Funcs[m.Name] / 1e9 / n
		case m.alloc != "":
			v = (after.Self[m.alloc] - before.Self[m.alloc]) / 1e6 / n
		case m.spans != nil:
			for _, name := range m.spans {
				v += spanTotal[name]
			}
			v /= n
		case m.count != "":
			v = tr.counts[m.count] / n
		}
		out[m.Name] = v
	}
	out["classify.agree_ratio"] = ratio(tr.counts["classify.agreed"], tr.counts["classify.classified"])
	out["scrape.gap_ratio"] = ratio(tr.counts["scrape.gaps"], tr.counts["scrape.pages"])
	out["gc.cpu_s"] = c.Self[layerGC] / 1e9 / n
	out["gc.cycles"] = tr.gc / n
	out["parallel.busy_ratio"] = (c.Total - c.Self[layerGC]) / 1e9 / (Workers * wall.Seconds())
	out["bench.attributed_ratio"] = ratio(c.Total-c.Self[layerOther], c.Total)
	return out, nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
