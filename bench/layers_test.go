package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"

	"faultstudy/internal/simenv"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"faultstudy/internal/simenv.New":                         "simenv",
		"faultstudy/internal/simenv.(*Env).Reroll":               "simenv",
		"faultstudy/internal/apps/sqldb.(*Server).Exec":          "apps",
		"faultstudy/internal/gnats.Parse":                        "parsers",
		"faultstudy/internal/debbugs.ParseCVSLog":                "parsers",
		"faultstudy/internal/parallel.MapOrdered[...].func1":     "parallel",
		"faultstudy/internal/corpusgen.(*Corpus).Faults.func1.1": "corpusgen",
		"faultstudy/internal/experiment.(*Telemetry).Merge":      "experiment",
		"faultstudy/bench.(*Iteration).call":                     "bench",
		"faultstudy.RunStudy":                                    "facade",
		"runtime.mallocgc":                                       "",
		"math/rand.(*rngSource).Seed":                            "",
		"net/http.(*conn).serve":                                 "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStackLayerAndOnStack(t *testing.T) {
	stack := []string{"runtime.mallocgc", "math/rand.(*rngSource).Seed", "faultstudy/internal/simenv.New",
		"faultstudy/internal/experiment.BuildScenario", "faultstudy/internal/corpusgen.(*Corpus).Faults.func1"}
	if got := stackLayer(stack); got != "simenv" {
		t.Errorf("stackLayer = %q, want simenv (innermost program frame)", got)
	}
	for fn, want := range map[string]bool{
		"faultstudy/internal/simenv.New":                 true,
		"faultstudy/internal/corpusgen.(*Corpus).Faults": true, // via its closure
		"faultstudy/internal/simenv.NewDisk":             false,
		"faultstudy/internal/experiment.RunCorpus":       false,
	} {
		if got := onStack(stack, fn); got != want {
			t.Errorf("onStack(%s) = %v, want %v", fn, got, want)
		}
	}
	for stack, want := range map[string]string{
		"runtime.gcDrain runtime.gcBgMarkWorker runtime.goexit":             layerGC,
		"syscall.Syscall net.(*conn).Read net/http.(*persistConn).readLoop": layerLoopback,
		"runtime.futex runtime.findRunnable runtime.schedule":               layerOther,
	} {
		if got := stackLayer(strings.Fields(stack)); got != want {
			t.Errorf("stackLayer(%s) = %q, want %q", stack, got, want)
		}
	}
}

// TestProfileDecodeAndAttribute captures a CPU profile of a known busy
// program function and checks the in-repo decoder charges it correctly.
func TestProfileDecodeAndAttribute(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	start := now()
	for seed := int64(0); now().Sub(start).Seconds() < 0.4; seed++ {
		simenv.New(seed) // seeds a math/rand source: busy in math/rand under simenv.New
	}
	pprof.StopCPUProfile()

	p, err := DecodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	col := p.ValueIndex("cpu")
	if col < 0 || len(p.Samples) == 0 {
		t.Fatalf("profile has types %v and %d samples", p.SampleTypes, len(p.Samples))
	}
	a := Attribute(p, col)
	if a.Total <= 0 {
		t.Fatal("no CPU time in the profile")
	}
	// The race detector's runtime samples carry no Go stack and land in the
	// "other" pseudo-layer, so shares are of the program-attributed time.
	program := a.Total - a.Self[layerGC] - a.Self[layerOther] - a.Self[layerLoopback]
	if share := a.Self["simenv"] / program; share < 0.9 {
		t.Errorf("simenv self share %.2f of program time, want nearly all (self %v)", share, a.Self)
	}
	if a.Funcs["simenv.new_cpu_s"] < 0.9*a.Self["simenv"] {
		t.Errorf("simenv.New on stack for %v of simenv's %v", a.Funcs["simenv.new_cpu_s"], a.Self["simenv"])
	}
	if a.Funcs["durable.apply_cpu_s"] != 0 {
		t.Error("time charged to a function that never ran")
	}

	// The allocation profile decodes too, with the column finish reads.
	var heap bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&heap, 0); err != nil {
		t.Fatal(err)
	}
	hp, err := DecodeProfile(&heap)
	if err != nil {
		t.Fatal(err)
	}
	if hp.ValueIndex("alloc_space") < 0 {
		t.Errorf("allocation profile types %v lack alloc_space", hp.SampleTypes)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0x0a, 0x05, 0x01}, {0x0f}, {0x1f, 0x8b, 0x00}} {
		if _, err := DecodeProfile(bytes.NewReader(data)); err == nil {
			t.Errorf("decoded %x", data)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, StartUS: 10, EndUS: 30},
		{ID: 3, Parent: 1, StartUS: 20, EndUS: 50},  // overlaps span 2
		{ID: 4, Parent: 1, StartUS: 90, EndUS: 120}, // runs past its parent
		{ID: 5, Parent: 3, StartUS: 25, EndUS: 35},
	}
	SelfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if got := spans[id-1].SelfUS; got != want {
			t.Errorf("span %d self %d, want %d", id, got, want)
		}
	}
	var nilSpans *Spans
	nilSpans.end(nilSpans.begin("x", "", 0))
	if nilSpans.List() != nil {
		t.Error("nil recorder recorded")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the harness reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []Metric `json:"end_to_end"`
		PerLayer []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range Workloads() {
		want = append(want, w.Name)
	}
	check := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: BENCHMARK.json has %s, the harness %s", what, g, w)
		}
	}
	check("paths", spec.Paths, []string{"bench"})
	check("workloads", names, want)
	check("end_to_end", spec.EndToEnd, EndToEnd)
	check("per_layer", spec.PerLayer, PerLayer())
	if _, err := ReadBounds("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
}
