package corpusgen

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"faultstudy/internal/classify"
	"faultstudy/internal/taxonomy"
)

// testCorpus builds a small population for unit tests.
func testCorpus(t *testing.T, spec string, seed int64) *Corpus {
	t.Helper()
	s, err := ParseCorpusSpec(spec)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	return New(s, seed)
}

func TestFaultInvariants(t *testing.T) {
	c := testCorpus(t, "faults=400;episodes=60", 11)
	for i := 0; i < 400; i++ {
		f := c.FaultAt(i)
		if f.Index != i || f.ID != strings.TrimSpace(f.ID) || f.ID == "" {
			t.Fatalf("fault %d: bad identity %+v", i, f)
		}
		if !strings.HasPrefix(f.Mechanism, f.AppName+"/") {
			t.Fatalf("fault %d: mechanism %q outside app %q", i, f.Mechanism, f.AppName)
		}
		if got := f.Trigger.DefaultClass(); got != f.Class {
			t.Fatalf("fault %d: mechanism class %v != sampled class %v", i, got, f.Class)
		}
		if appValues[f.AppName] != f.App {
			t.Fatalf("fault %d: app name %q vs app %v", i, f.AppName, f.App)
		}
		if f.Lifetime <= 0 {
			t.Fatalf("fault %d: non-positive lifetime %v (%q)", i, f.Lifetime, f.LifetimeText)
		}
		if err := f.Report().Validate(); err != nil {
			t.Fatalf("fault %d: invalid report: %v", i, err)
		}
	}
}

func TestFaultAtIsPure(t *testing.T) {
	c := testCorpus(t, "faults=50", 7)
	c2 := testCorpus(t, "faults=50", 7)
	for i := 0; i < 50; i++ {
		a, b := c.FaultAt(i), c2.FaultAt(i)
		if *a != *b {
			t.Fatalf("fault %d differs across corpus instances: %+v vs %+v", i, a, b)
		}
	}
	if a, b := c.FaultAt(3), c.FaultAt(3); *a != *b {
		t.Fatalf("fault 3 differs across calls: %+v vs %+v", a, b)
	}
}

func TestEpisodeInvariants(t *testing.T) {
	c := testCorpus(t, "faults=200;episodes=120", 23)
	for j := 0; j < 120; j++ {
		e := c.EpisodeAt(j)
		if e.Primary < 0 || e.Primary >= 200 {
			t.Fatalf("episode %d: primary %d out of range", j, e.Primary)
		}
		pf := c.FaultAt(e.Primary)
		if e.PrimaryMechanism != pf.Mechanism {
			t.Fatalf("episode %d: primary mechanism mismatch", j)
		}
		if e.Secondary == e.PrimaryMechanism {
			t.Fatalf("episode %d: secondary equals primary %q", j, e.Secondary)
		}
		if !strings.HasPrefix(e.Secondary, pf.AppName+"/") {
			t.Fatalf("episode %d: secondary %q not in app %q", j, e.Secondary, pf.AppName)
		}
		if e.Overlap != "concurrent" && e.Overlap != "cascade" {
			t.Fatalf("episode %d: overlap %q", j, e.Overlap)
		}
		if e.Gap <= 0 {
			t.Fatalf("episode %d: gap %v", j, e.Gap)
		}
	}
}

// TestTriggerProseClassifies pins the contract between the generator's
// trigger prose and the classifier's lexicon: each trigger's sentence must
// win its own trigger hypothesis, so a generated environmental fault is
// recovered as its sampled class.
func TestTriggerProseClassifies(t *testing.T) {
	cl := classify.New(classify.Options{})
	for kind, prose := range triggerProse {
		f := &GenFault{
			Index: 1, ID: "gen/prose", App: taxonomy.AppApache, AppName: "httpd",
			Class: kind.DefaultClass(), Trigger: kind, Defect: "memory",
			LifetimeText: "30d", Severity: taxonomy.SeveritySerious,
			Symptom: taxonomy.SymptomCrash,
		}
		res := cl.Classify(f.Report())
		if res.Trigger != kind {
			t.Errorf("trigger %v: prose %q classified as trigger %v (evidence %v)",
				kind, prose, res.Trigger, res.Evidence)
		}
		if res.Class != kind.DefaultClass() {
			t.Errorf("trigger %v: class %v, want %v", kind, res.Class, kind.DefaultClass())
		}
	}
}

// TestClassifierAgreement runs a whole population through the classifier:
// the sampled class must be recovered for every generated report.
func TestClassifierAgreement(t *testing.T) {
	c := testCorpus(t, "faults=1500", 31)
	cl := classify.New(classify.Options{})
	agree := 0
	for i := 0; i < 1500; i++ {
		f := c.FaultAt(i)
		res := cl.Classify(f.Report())
		if res.Class == f.Class {
			agree++
		} else if agree == i { // log only the first disagreement in detail
			t.Logf("fault %d (%s, %v): classified %v via %v, evidence %v",
				i, f.Mechanism, f.Class, res.Class, res.Trigger, res.Evidence)
		}
	}
	if agree != 1500 {
		t.Fatalf("classifier agreement %d/1500; generated prose must deterministically classify", agree)
	}
}

func TestEmptyClassPoolImpossible(t *testing.T) {
	// Every app must expose mechanisms in all three classes, or New panics.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("New panicked: %v", r)
		}
	}()
	testCorpus(t, "faults=1", 1)
}

// TestRegistryConcurrentReads reads the shared catalogue from 8 goroutines
// while corpora are built over it; under -race it checks that the catalogue
// needs no lock once built.
func TestRegistryConcurrentReads(t *testing.T) {
	want := Registry().Mechanisms()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if Registry() != registry {
				t.Error("Registry() returned a second instance")
			}
			for i, m := range Registry().Mechanisms() {
				if m != want[i] {
					t.Errorf("Mechanisms()[%d] = %s, want %s", i, m.Key, want[i].Key)
				}
				if got, ok := Registry().Lookup(m.Key); !ok || got != m {
					t.Errorf("Lookup(%s) = %+v, %v", m.Key, got, ok)
				}
			}
			s, err := ParseCorpusSpec("faults=20")
			if err != nil {
				t.Error(err)
				return
			}
			New(s, int64(g)).FaultAt(g)
		}()
	}
	wg.Wait()
}

// TestSamplerMatchesFreshSource pins what the sampler pool relies on: a
// reseeded generator that has already been drawn from yields the same
// stream as a freshly constructed one.
func TestSamplerMatchesFreshSource(t *testing.T) {
	used := sampler(1)
	for i := 0; i < 1000; i++ {
		used.Float64()
	}
	samplers.Put(used)
	for _, seed := range []int64{0, 7, -3, 1 << 40} {
		got, want := sampler(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 700; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: pooled %d, fresh %d", seed, i, g, w)
			}
		}
		samplers.Put(got)
	}
}
