package bench

import (
	"strings"
)

// Metric names one reported number and its unit.
type Metric struct {
	// Name is the metric's key in the result line and in BENCHMARK.json.
	Name string
	// Unit is the metric's unit as BENCHMARK.json spells it.
	Unit string
}

// EndToEnd lists the metrics an untraced run reports, in print order. They
// match BENCHMARK.json's end_to_end list.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
	{"peak_rss_mb", "MB"},
}

// layerMetric defines one per-layer metric of the traced run. Exactly one
// source field is set; the metrics whose computation is special (ratios,
// GC, busy time, trace overhead) set none and are filled in by name.
type layerMetric struct {
	Metric
	self  string   // layer whose self CPU time this is
	funcs []string // functions whose on-stack CPU time this is
	alloc string   // layer whose allocated bytes this is
	spans []string // benchmark spans whose durations this sums
	count string   // exact count from the iteration reports
}

// internal qualifies function names of the program's internal packages.
func internal(names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "faultstudy/internal/" + n
	}
	return out
}

// perLayer lists the traced run's metrics, in print order. CPU and span
// times, allocations and counts are per timed iteration; ratios are over
// the whole traced run. They match BENCHMARK.json's per_layer list.
var perLayer = []layerMetric{
	{Metric: Metric{"simenv.new_cpu_s", "s"}, funcs: internal("simenv.New")},
	{Metric: Metric{"simenv.reroll_cpu_s", "s"}, funcs: internal("simenv.(*Env).Reroll")},
	{Metric: Metric{"simenv.self_cpu_s", "s"}, self: "simenv"},
	{Metric: Metric{"simenv.alloc_mb", "MB"}, alloc: "simenv"},
	{Metric: Metric{"supervise.run_cpu_s", "s"}, funcs: internal("supervise.(*Supervisor).Run")},
	{Metric: Metric{"supervise.self_cpu_s", "s"}, self: "supervise"},
	{Metric: Metric{"supervise.runs", "count"}, count: "supervise.runs"},
	{Metric: Metric{"apps.sqldb.exec_cpu_s", "s"}, funcs: internal("apps/sqldb.(*Server).Exec")},
	{Metric: Metric{"apps.httpd.serve_cpu_s", "s"}, funcs: internal("apps/httpd.(*Componentized).ServeArrival")},
	{Metric: Metric{"apps.self_cpu_s", "s"}, self: "apps"},
	{Metric: Metric{"apps.alloc_mb", "MB"}, alloc: "apps"},
	{Metric: Metric{"apps.requests", "count"}, count: "apps.requests"},
	{Metric: Metric{"component.reboot_cpu_s", "s"}, funcs: internal("component.(*Tree).Reboot", "component.(*Tree).RebootSubtree")},
	{Metric: Metric{"component.self_cpu_s", "s"}, self: "component"},
	{Metric: Metric{"component.reboots", "count"}, count: "component.reboots"},
	{Metric: Metric{"durable.apply_cpu_s", "s"}, funcs: internal("durable.(*Store).Apply")},
	{Metric: Metric{"durable.open_cpu_s", "s"}, funcs: internal("durable.Open")},
	{Metric: Metric{"durable.rollback_cpu_s", "s"}, funcs: internal("durable.(*Store).RollbackTo")},
	{Metric: Metric{"durable.self_cpu_s", "s"}, self: "durable"},
	{Metric: Metric{"durable.acked", "count"}, count: "durable.acked"},
	{Metric: Metric{"durable.crashes", "count"}, count: "durable.crashes"},
	{Metric: Metric{"traffic.schedule_cpu_s", "s"}, funcs: internal("traffic.Schedule")},
	{Metric: Metric{"traffic.arrivals", "count"}, count: "traffic.arrivals"},
	{Metric: Metric{"corpusgen.sample_cpu_s", "s"}, funcs: internal("corpusgen.(*Corpus).Faults", "corpusgen.(*Corpus).Episodes")},
	{Metric: Metric{"corpusgen.gof_cpu_s", "s"}, funcs: internal("corpusgen.(*Corpus).GoodnessOfFit")},
	{Metric: Metric{"corpusgen.site_cpu_s", "s"}, funcs: internal("corpusgen.(*Site).ServeHTTP")},
	{Metric: Metric{"corpusgen.self_cpu_s", "s"}, self: "corpusgen"},
	{Metric: Metric{"classify.classify_cpu_s", "s"}, funcs: internal("classify.(*Classifier).Classify")},
	{Metric: Metric{"classify.self_cpu_s", "s"}, self: "classify"},
	{Metric: Metric{"classify.agree_ratio", "ratio"}},
	{Metric: Metric{"scrape.crawl_cpu_s", "s"}, funcs: internal("scrape.(*Crawler).Crawl")},
	{Metric: Metric{"scrape.self_cpu_s", "s"}, self: "scrape"},
	{Metric: Metric{"scrape.pages", "count"}, count: "scrape.pages"},
	{Metric: Metric{"scrape.gap_ratio", "ratio"}},
	{Metric: Metric{"bugsite.self_cpu_s", "s"}, self: "bugsite"},
	{Metric: Metric{"parsers.parse_cpu_s", "s"}, funcs: internal("gnats.Parse", "debbugs.Parse", "debbugs.ParseCVSLog", "mbox.Parse")},
	{Metric: Metric{"parsers.self_cpu_s", "s"}, self: "parsers"},
	{Metric: Metric{"dedup.mark_cpu_s", "s"}, funcs: internal("dedup.Mark")},
	{Metric: Metric{"dedup.self_cpu_s", "s"}, self: "dedup"},
	{Metric: Metric{"faultinject.self_cpu_s", "s"}, self: "faultinject"},
	{Metric: Metric{"loopback.cpu_s", "s"}, self: layerLoopback},
	{Metric: Metric{"core.raw_reports", "count"}, count: "core.raw_reports"},
	{Metric: Metric{"obsv.export_s", "s"}, spans: []string{spanWriteTrace, spanWriteProm}},
	{Metric: Metric{"obsv.merge_cpu_s", "s"}, funcs: internal("experiment.(*Telemetry).Merge")},
	{Metric: Metric{"obsv.self_cpu_s", "s"}, self: "obsv"},
	{Metric: Metric{"obsv.alloc_mb", "MB"}, alloc: "obsv"},
	{Metric: Metric{"obsv.episodes", "count"}, count: "obsv.episodes"},
	{Metric: Metric{"experiment.run_s", "s"}, spans: []string{spanRun}},
	{Metric: Metric{"experiment.check_s", "s"}, spans: []string{spanCheck}},
	{Metric: Metric{"experiment.render_s", "s"}, spans: []string{spanRender}},
	{Metric: Metric{"experiment.self_cpu_s", "s"}, self: "experiment"},
	{Metric: Metric{"parallel.busy_ratio", "ratio"}},
	{Metric: Metric{"gc.cpu_s", "s"}},
	{Metric: Metric{"gc.cycles", "count"}},
	{Metric: Metric{"bench.attributed_ratio", "ratio"}},
	{Metric: Metric{"bench.trace_overhead_pct", "%"}},
}

// PerLayer lists the traced run's metrics and units, in print order.
func PerLayer() []Metric {
	out := make([]Metric, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.Metric
	}
	return out
}

// Pseudo-layers for profile samples no program frame owns.
const (
	layerGC       = "gc"       // the runtime's background GC workers
	layerLoopback = "loopback" // net/http plumbing between crawler and sites
	layerOther    = "other"    // scheduler and other runtime work
)

// layerAlias folds packages into the layer the metrics name them by.
var layerAlias = map[string]string{
	"gnats":   "parsers",
	"debbugs": "parsers",
	"mbox":    "parsers",
}

// layerOf returns the program layer owning function fn — the first path
// element under faultstudy/internal ("apps" for every app), "facade" for the
// root package, "bench" for this harness — or "" for a standard-library or
// runtime function.
func layerOf(fn string) string {
	const prefix = "faultstudy/internal/"
	switch {
	case strings.HasPrefix(fn, prefix):
		rest := fn[len(prefix):]
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		if alias, ok := layerAlias[rest]; ok {
			return alias
		}
		return rest
	case strings.HasPrefix(fn, "faultstudy/bench"):
		return "bench"
	case strings.HasPrefix(fn, "faultstudy."):
		return "facade"
	}
	return ""
}

// stackLayer charges one sample's stack (leaf first) to a layer: the layer
// of the innermost program frame, so standard-library and runtime work goes
// to the program code that asked for it. Stacks without program frames go
// to a pseudo-layer.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		switch {
		case fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" ||
			fn == "runtime.bgscavenge" || fn == "runtime._GC":
			return layerGC
		case strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net."):
			return layerLoopback
		}
	}
	return layerOther
}

// onStack reports whether fn, or a closure defined inside it, is a frame of
// stack. Closures count because the parallel engine runs a function's
// per-shard work in worker goroutines whose stacks hold only the closure.
func onStack(stack []string, fn string) bool {
	for _, f := range stack {
		if f == fn || strings.HasPrefix(f, fn+".func") {
			return true
		}
	}
	return false
}

// Attribution is one profile value column charged to layers and functions.
type Attribution struct {
	// Total is the column's sum over all samples.
	Total float64
	// Self maps each layer (and pseudo-layer) to the value charged to it.
	Self map[string]float64
	// Funcs maps each per-layer metric with functions to the value of the
	// samples that have one of its functions on the stack, counted once.
	Funcs map[string]float64
}

// Attribute charges column col of p to layers and to perLayer's functions.
func Attribute(p *Profile, col int) Attribution {
	a := Attribution{Self: map[string]float64{}, Funcs: map[string]float64{}}
	for _, s := range p.Samples {
		v := float64(s.Values[col])
		a.Total += v
		a.Self[stackLayer(s.Stack)] += v
		for _, m := range perLayer {
			for _, fn := range m.funcs {
				if onStack(s.Stack, fn) {
					a.Funcs[m.Name] += v
					break
				}
			}
		}
	}
	return a
}
