// Package bench is the repository's benchmark: four closed-loop workloads
// over the recovery lab and the mining pipeline, each measured in its own
// child process for end-to-end metrics, and again under profiling for
// per-layer metrics. The workloads call only the program's public entry
// points (experiment.Run*, faultstudy.RunStudy, the reports' Check and
// String, and the telemetry exporters); see README.md for what each
// measures and why.
package bench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"faultstudy"
	"faultstudy/internal/corpusgen"
	"faultstudy/internal/experiment"
)

// Workers is the pool size every sharded sweep runs with, and GOMAXPROCS of
// every child process: one load-generating process with at most two busy
// threads, matching the two-CPU host the baseline was taken on.
const Workers = 2

// Outputs receives an iteration's byte artifacts: the rendered report, the
// episode trace and the Prometheus dump. The determinism pass hashes them;
// timed iterations discard them.
type Outputs struct {
	// Report receives the report's String rendering.
	Report io.Writer
	// Trace receives Telemetry.WriteTrace output.
	Trace io.Writer
	// Prom receives Telemetry.WritePrometheus output.
	Prom io.Writer
}

// Iteration is one run of a workload's body.
type Iteration struct {
	// Seed is the iteration's input seed.
	Seed int64
	// Workers is the pool size the program shards over.
	Workers int
	// Out receives the byte artifacts.
	Out Outputs

	spans *Spans
	root  int
}

// call runs f inside a span named name that records the public function
// call it makes.
func (it *Iteration) call(name, call string, f func() error) error {
	id := it.spans.begin(name, call, it.root)
	err := f()
	it.spans.end(id)
	return err
}

// render writes the report's String rendering to the report output.
func (it *Iteration) render(rep fmt.Stringer) error {
	return it.call(spanRender, "String", func() error {
		_, err := io.WriteString(it.Out.Report, rep.String())
		return err
	})
}

// export writes the telemetry's trace and Prometheus dump, as the lab's CI
// jobs do with -trace and -prom.
func (it *Iteration) export(tel *experiment.Telemetry) error {
	if err := it.call(spanWriteTrace, "Telemetry.WriteTrace", func() error { return tel.WriteTrace(it.Out.Trace) }); err != nil {
		return err
	}
	return it.call(spanWriteProm, "Telemetry.WritePrometheus", func() error { return tel.WritePrometheus(it.Out.Prom) })
}

// Work is what one iteration did: its workload units (the numerator of
// units_per_s) and exact per-layer counts read from its reports.
type Work struct {
	// Units counts the workload's unit of work.
	Units int
	// Counts holds per-layer counts keyed by metric name (plus the
	// numerators and denominators of the ratio metrics).
	Counts map[string]float64
}

// Body runs one iteration. It returns an error when the program fails or
// any output is wrong.
type Body func(it *Iteration) (Work, error)

// Workload is one named closed-loop workload.
type Workload struct {
	// Name is the workload's name on the command line and in BENCHMARK.json.
	Name string
	// Unit names what units_per_s counts.
	Unit string
	// Setup prepares a fresh process: it warms what every later iteration
	// reuses and returns the iteration body and a release function.
	Setup func() (Body, func(), error)
	// NextSeed returns the first seed at or after s the workload's inputs
	// may be drawn from; nil means s itself.
	NextSeed func(s int64) (int64, error)
}

// Workloads returns the benchmark's workloads at full size, in run order.
func Workloads() []Workload {
	return []Workload{
		corpusWorkload(experiment.CorpusConfig{}),
		serveWorkload(experiment.ServeConfig{}),
		recoverWorkload(16),
		mineWorkload(),
	}
}

// Lookup returns the named full-size workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// corpusWorkload runs the CORPUS sweep: the generated population through
// classification and the supervised ladder, with telemetry exported.
func corpusWorkload(base experiment.CorpusConfig) Workload {
	return Workload{
		Name: "corpus",
		Unit: "ladder-runs",
		Setup: func() (Body, func(), error) {
			if _, err := corpusgen.ParseCorpusSpec(base.Spec); err != nil {
				return nil, nil, err
			}
			experiment.CorpusRegistry()
			curated := len(faultstudy.Corpus())
			body := func(it *Iteration) (Work, error) {
				cfg := base
				cfg.Seed, cfg.Workers = it.Seed, it.Workers
				cfg.Supervise = faultstudy.SupervisorConfig{GrowResources: true}
				cfg.Telemetry = experiment.NewTelemetry()
				var rep *experiment.CorpusReport
				if err := it.call(spanRun, "experiment.RunCorpus", func() (err error) {
					rep, err = experiment.RunCorpus(cfg)
					return err
				}); err != nil {
					return Work{}, err
				}
				if err := it.call(spanCheck, "CorpusReport.Check", rep.Check); err != nil {
					return Work{}, err
				}
				if err := it.render(rep); err != nil {
					return Work{}, err
				}
				if err := it.export(cfg.Telemetry); err != nil {
					return Work{}, err
				}
				agreed, classified := 0, 0
				for _, st := range rep.Classes {
					agreed += st.Agreement.Hits
					classified += st.Agreement.N
				}
				runs := rep.Faults + rep.Episodes + curated
				return Work{Units: runs, Counts: map[string]float64{
					"supervise.runs":      float64(runs),
					"classify.agreed":     float64(agreed),
					"classify.classified": float64(classified),
					"scrape.pages":        float64(rep.SiteCrawled + rep.SiteGaps),
					"scrape.gaps":         float64(rep.SiteGaps),
					"obsv.episodes":       float64(len(cfg.Telemetry.Episodes())),
				}}, nil
			}
			return body, func() {}, nil
		},
		NextSeed: func(s int64) (int64, error) { return corpusSeed(base.Spec, s) },
	}
}

// corpusSeed returns the first seed at or after s whose generated population
// passes every goodness-of-fit test. The gate is a chi-squared test at alpha
// 0.001 on each sampled dimension, so roughly one seed in 150 fails it by
// design (seeds 84 and 294 among 0..299); the workload skips those rather
// than count a correct program's expected false alarm as a failure. The
// screening runs outside the timed region.
func corpusSeed(specText string, s int64) (int64, error) {
	spec, err := corpusgen.ParseCorpusSpec(specText)
	if err != nil {
		return 0, err
	}
	for tries := 0; tries < 100; tries, s = tries+1, s+1 {
		gen := corpusgen.New(spec, s)
		faults, err := gen.Faults(Workers)
		if err != nil {
			return 0, err
		}
		episodes, err := gen.Episodes(Workers)
		if err != nil {
			return 0, err
		}
		fits := true
		for _, g := range gen.GoodnessOfFit(faults, episodes) {
			fits = fits && g.Pass()
		}
		if fits {
			return s, nil
		}
	}
	return 0, fmt.Errorf("bench: no corpus seed in 100 from %d fits its distributions", s-100)
}

// serveWorkload runs the SERVE sweep: open-loop traffic through every
// (mechanism, rung) arm, telemetry off.
func serveWorkload(base experiment.ServeConfig) Workload {
	return Workload{
		Name: "serve",
		Unit: "requests",
		Setup: func() (Body, func(), error) {
			experiment.Registry()
			body := func(it *Iteration) (Work, error) {
				cfg := base
				cfg.Seed, cfg.Workers = it.Seed, it.Workers
				var rep *experiment.ServeReport
				if err := it.call(spanRun, "experiment.RunServe", func() (err error) {
					rep, err = experiment.RunServe(cfg)
					return err
				}); err != nil {
					return Work{}, err
				}
				if err := it.call(spanCheck, "ServeReport.Check", rep.Check); err != nil {
					return Work{}, err
				}
				if err := it.render(rep); err != nil {
					return Work{}, err
				}
				arrivals, handled := 0, 0
				for _, a := range rep.Arms {
					arrivals += a.Requests
					handled += a.Good + a.Slow + a.Errored
				}
				return Work{Units: arrivals, Counts: map[string]float64{
					"traffic.arrivals": float64(arrivals),
					"apps.requests":    float64(handled),
				}}, nil
			}
			return body, func() {}, nil
		},
	}
}

// recoverWorkload runs the MREBOOT sweep and then durables DURABLE sweeps,
// the k-th at seed Seed*durables+k, all with telemetry exported.
func recoverWorkload(durables int) Workload {
	return Workload{
		Name: "recover",
		Unit: "recovery-arms",
		Setup: func() (Body, func(), error) {
			experiment.Registry()
			body := func(it *Iteration) (Work, error) {
				tel := experiment.NewTelemetry()
				var mr *experiment.MRebootReport
				if err := it.call(spanRun, "experiment.RunMReboot", func() (err error) {
					mr, err = experiment.RunMReboot(experiment.MRebootConfig{Seed: it.Seed, Workers: it.Workers, Telemetry: tel})
					return err
				}); err != nil {
					return Work{}, err
				}
				if err := it.call(spanCheck, "MRebootReport.Check", mr.Check); err != nil {
					return Work{}, err
				}
				if err := it.render(mr); err != nil {
					return Work{}, err
				}
				if err := it.export(tel); err != nil {
					return Work{}, err
				}
				w := Work{Units: len(mr.Arms), Counts: map[string]float64{"obsv.episodes": float64(len(tel.Episodes()))}}
				for _, a := range mr.Arms {
					w.Counts["apps.requests"] += float64(a.Served)
					w.Counts["component.reboots"] += float64(a.Reboots)
				}
				for k := 0; k < durables; k++ {
					tel := experiment.NewTelemetry()
					cfg := experiment.DurableConfig{Seed: it.Seed*int64(durables) + int64(k), Workers: it.Workers, Telemetry: tel}
					var dr *experiment.DurableReport
					if err := it.call(spanRun, "experiment.RunDurable", func() (err error) {
						dr, err = experiment.RunDurable(cfg)
						return err
					}); err != nil {
						return Work{}, err
					}
					if err := it.call(spanCheck, "DurableReport.Check", dr.Check); err != nil {
						return Work{}, fmt.Errorf("durable seed %d: %w", cfg.Seed, err)
					}
					if err := it.render(dr); err != nil {
						return Work{}, err
					}
					if err := it.export(tel); err != nil {
						return Work{}, err
					}
					w.Units += len(dr.Arms)
					w.Counts["obsv.episodes"] += float64(len(tel.Episodes()))
					for _, a := range dr.Arms {
						w.Counts["durable.acked"] += float64(a.Acked)
						w.Counts["durable.crashes"] += float64(a.Crashes)
					}
				}
				return w, nil
			}
			return body, func() {}, nil
		},
	}
}

// paperUnique is the unique-fault count of each application in the paper.
var paperUnique = map[faultstudy.Application]int{
	faultstudy.AppApache: 50,
	faultstudy.AppGnome:  45,
	faultstudy.AppMySQL:  44,
}

// mineWorkload runs the paper's methodology: RunStudy over the three
// simulated trackers, regenerated from each iteration's seed and served on
// loopback listeners opened at set-up.
func mineWorkload() Workload {
	return Workload{
		Name: "mine",
		Unit: "raw-reports",
		Setup: func() (Body, func(), error) {
			faultstudy.Corpus()
			var sites [3]*siteSlot
			var servers []*httptest.Server
			for i := range sites {
				sites[i] = &siteSlot{}
				servers = append(servers, httptest.NewServer(sites[i]))
			}
			release := func() {
				for _, s := range servers {
					s.Close()
				}
			}
			src := faultstudy.StudySources{ApacheBase: servers[0].URL, GnomeBase: servers[1].URL, MySQLBase: servers[2].URL}
			body := func(it *Iteration) (Work, error) {
				cfg := faultstudy.SiteConfig{Seed: it.Seed}
				_ = it.call(spanSites, "faultstudy.New*Site", func() error {
					sites[0].set(faultstudy.NewApacheTrackerSite(cfg))
					sites[1].set(faultstudy.NewGnomeTrackerSite(cfg))
					sites[2].set(faultstudy.NewMySQLArchiveSite(cfg))
					return nil
				})
				pages0, gaps0 := countPages(sites[:])
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				var res *faultstudy.StudyResult
				if err := it.call(spanRun, "faultstudy.RunStudy", func() (err error) {
					res, err = faultstudy.RunStudy(ctx, src, faultstudy.StudyOptions{})
					return err
				}); err != nil {
					return Work{}, err
				}
				rep := studyReport{res}
				if err := it.call(spanCheck, "Tables 1-3", rep.check); err != nil {
					return Work{}, err
				}
				if err := it.render(rep); err != nil {
					return Work{}, err
				}
				pages1, gaps1 := countPages(sites[:])
				w := Work{Counts: map[string]float64{
					"scrape.pages": float64(pages1 - pages0),
					"scrape.gaps":  float64(gaps1 - gaps0),
				}}
				for _, app := range studyApps {
					r := res.Apps[app]
					w.Units += r.Raw
					w.Counts["classify.classified"] += float64(r.Unique)
					for class, n := range experiment.PaperTables[app] {
						w.Counts["classify.agreed"] += float64(min(r.Counts[class], n))
					}
				}
				w.Counts["core.raw_reports"] = float64(w.Units)
				return w, nil
			}
			return body, release, nil
		},
	}
}

// studyApps is the paper's application order.
var studyApps = []faultstudy.Application{faultstudy.AppApache, faultstudy.AppGnome, faultstudy.AppMySQL}

// studyReport checks and renders a study result the way cmd/faultstudy
// prints it.
type studyReport struct{ res *faultstudy.StudyResult }

// check requires the paper's Tables 1–3 exactly: each application's unique
// faults and per-class counts, 139 faults in all.
func (s studyReport) check() error {
	total := 0
	for _, app := range studyApps {
		r := s.res.Apps[app]
		if r == nil {
			return fmt.Errorf("bench: mine: no result for %s", app)
		}
		if r.Unique != paperUnique[app] {
			return fmt.Errorf("bench: mine: %s has %d unique faults, the paper %d", app, r.Unique, paperUnique[app])
		}
		for class, n := range experiment.PaperTables[app] {
			if r.Counts[class] != n {
				return fmt.Errorf("bench: mine: %s %s = %d, the paper's table %d", app, class.Short(), r.Counts[class], n)
			}
		}
		total += r.Unique
	}
	if total != 139 {
		return fmt.Errorf("bench: mine: %d unique faults, want 139", total)
	}
	return nil
}

// String renders the three tables.
func (s studyReport) String() string {
	out := ""
	for _, app := range studyApps {
		r := s.res.Apps[app]
		out += fmt.Sprintf("%s: %d raw -> %d qualifying -> %d unique (%d duplicates folded)\n", app, r.Raw, r.Qualifying, r.Unique, r.Duplicates)
		out += r.Table()
	}
	return out
}

// siteSlot serves whichever tracker site the current iteration generated,
// counting the pages served and the error responses among them.
type siteSlot struct {
	mu          sync.Mutex
	site        http.Handler
	pages, gaps atomic.Int64
}

// set installs the site later requests are served from.
func (s *siteSlot) set(h http.Handler) {
	s.mu.Lock()
	s.site = h
	s.mu.Unlock()
}

// ServeHTTP serves one page from the current site.
func (s *siteSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	site := s.site
	s.mu.Unlock()
	rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	site.ServeHTTP(rec, r)
	s.pages.Add(1)
	if rec.status >= 400 {
		s.gaps.Add(1)
	}
}

// countPages sums the pages and error responses the sites have served.
func countPages(sites []*siteSlot) (pages, gaps int64) {
	for _, s := range sites {
		pages += s.pages.Load()
		gaps += s.gaps.Load()
	}
	return pages, gaps
}

// statusWriter records the status code a handler sends.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status and forwards it.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
