package classify

import (
	"testing"
	"testing/quick"

	"faultstudy/internal/corpus"
	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

func TestClassifierMatchesOracleExactly(t *testing.T) {
	c := New(Options{})
	cm := Evaluate(c, corpus.All())
	if cm.Accuracy() != 1.0 {
		t.Errorf("classifier disagrees with the oracle on %d faults:\n%s",
			len(cm.Disagreements), cm)
		for _, d := range cm.Disagreements {
			t.Log(d)
		}
	}
}

func TestClassifierReproducesTables(t *testing.T) {
	c := New(Options{})
	want := map[taxonomy.Application]map[taxonomy.FaultClass]int{
		taxonomy.AppApache: {
			taxonomy.ClassEnvIndependent:           36,
			taxonomy.ClassEnvDependentNonTransient: 7,
			taxonomy.ClassEnvDependentTransient:    7,
		},
		taxonomy.AppGnome: {
			taxonomy.ClassEnvIndependent:           39,
			taxonomy.ClassEnvDependentNonTransient: 3,
			taxonomy.ClassEnvDependentTransient:    3,
		},
		taxonomy.AppMySQL: {
			taxonomy.ClassEnvIndependent:           38,
			taxonomy.ClassEnvDependentNonTransient: 4,
			taxonomy.ClassEnvDependentTransient:    2,
		},
	}
	for app, table := range want {
		cm := Evaluate(c, corpus.ByApp(app))
		got := cm.PredictedCounts()
		for class, n := range table {
			if got[class] != n {
				t.Errorf("%s: predicted %d %s, paper table says %d",
					app, got[class], class.Short(), n)
			}
		}
	}
}

func TestClassifyEnvIndependentDefault(t *testing.T) {
	c := New(Options{})
	r := &report.Report{
		ID: "x", App: taxonomy.AppApache,
		Synopsis:    "server crashes when given a weird header",
		Description: "Crashes every time on any machine.",
	}
	res := c.Classify(r)
	if res.Class != taxonomy.ClassEnvIndependent {
		t.Errorf("class = %v, want EI", res.Class)
	}
	if res.Trigger != taxonomy.TriggerWorkloadOnly {
		t.Errorf("trigger = %v", res.Trigger)
	}
	if len(res.Evidence) == 0 {
		t.Error("expected deterministic evidence")
	}
}

func TestClassifyRace(t *testing.T) {
	c := New(Options{})
	r := &report.Report{
		ID: "x", App: taxonomy.AppMySQL,
		Synopsis:    "server dies under load",
		Description: "Looks like a race condition between two threads; not reliably reproducible, fails only sometimes.",
	}
	res := c.Classify(r)
	if res.Class != taxonomy.ClassEnvDependentTransient {
		t.Errorf("class = %v, want EDT", res.Class)
	}
	if res.Trigger != taxonomy.TriggerRace {
		t.Errorf("trigger = %v, want race", res.Trigger)
	}
}

// TestWeakTriggerOutscoresEIPrior pins the EI prior: one trigger cue of
// weight 1.5, with no deterministic cue beside it, must beat the prior of
// 1.0 and call the fault environment-dependent.
func TestWeakTriggerOutscoresEIPrior(t *testing.T) {
	c := New(Options{})
	r := &report.Report{
		ID: "x", App: taxonomy.AppApache,
		Synopsis:    "server stops answering",
		Description: "The daemon stops answering under sustained high load.",
	}
	res := c.Classify(r)
	if len(res.Evidence) != 1 || res.Evidence[0] != "under sustained high load" {
		t.Fatalf("evidence = %q, want only the 1.5-weight resource-leak cue", res.Evidence)
	}
	if res.Class == taxonomy.ClassEnvIndependent || res.Trigger != taxonomy.TriggerResourceLeak {
		t.Errorf("class %v trigger %v, want environment-dependent via resource-leak", res.Class, res.Trigger)
	}
}

func TestClassifyDiskFull(t *testing.T) {
	c := New(Options{})
	r := &report.Report{
		ID: "x", App: taxonomy.AppMySQL,
		Synopsis:    "all inserts fail",
		Description: "A full file system prevents all operations until space is freed.",
	}
	res := c.Classify(r)
	if res.Class != taxonomy.ClassEnvDependentNonTransient {
		t.Errorf("class = %v, want EDN", res.Class)
	}
	if res.Trigger != taxonomy.TriggerDiskFull {
		t.Errorf("trigger = %v, want disk-full", res.Trigger)
	}
}

func TestReverseDNSOutranksDNS(t *testing.T) {
	c := New(Options{})
	r := &report.Report{
		ID: "x", App: taxonomy.AppMySQL,
		Synopsis:    "crash on connect",
		Description: "Crashes when reverse DNS is not configured for the remote host; the PTR record is missing.",
	}
	res := c.Classify(r)
	if res.Trigger != taxonomy.TriggerHostConfig {
		t.Errorf("trigger = %v, want host-config", res.Trigger)
	}
	if res.Class != taxonomy.ClassEnvDependentNonTransient {
		t.Errorf("class = %v, want EDN", res.Class)
	}
}

func TestNegationGuard(t *testing.T) {
	always := -1
	for k, p := range deterministicLexicon {
		if p.text == "always" {
			always = k
		}
	}
	for _, tc := range []struct {
		text string
		want bool
	}{
		{"it does not always crash", false},
		{"never always, no always", false},
		{"it always crashes", true},
		{"not here, but always there", true},
		{"not always here, but always there", true},
	} {
		if got := cues().match(tc.text).has(always); got != tc.want {
			t.Errorf("%q: cue \"always\" hit %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestConfidenceBounds(t *testing.T) {
	c := New(Options{})
	for _, f := range corpus.All() {
		res := c.Classify(f.Report())
		if res.Confidence <= 0 || res.Confidence > 1 {
			t.Errorf("%s: confidence %v out of range", f.ID, res.Confidence)
		}
	}
}

func TestWeightScaleBiasesTowardEI(t *testing.T) {
	// With trigger weights scaled to near zero, everything becomes
	// environment-independent — the ablation's extreme point.
	c := New(Options{TriggerWeightScale: 0.01})
	cm := Evaluate(c, corpus.All())
	counts := cm.PredictedCounts()
	if counts[taxonomy.ClassEnvIndependent] != cm.Total {
		t.Errorf("EI predictions = %d of %d; crushing trigger weights should flatten to EI",
			counts[taxonomy.ClassEnvIndependent], cm.Total)
	}
}

func TestConfusionString(t *testing.T) {
	c := New(Options{})
	cm := Evaluate(c, corpus.Apache())
	s := cm.String()
	if s == "" {
		t.Error("empty confusion rendering")
	}
}

// Property: the classifier never panics and always returns a valid class for
// arbitrary report text.
func TestClassifierTotalProperty(t *testing.T) {
	c := New(Options{})
	f := func(synopsis, description, howto string) bool {
		res := c.Classify(&report.Report{
			ID:          "fuzz",
			App:         taxonomy.AppApache,
			Synopsis:    synopsis,
			Description: description,
			HowToRepeat: howto,
		})
		return res.Class.Valid() && res.Confidence > 0 && res.Confidence <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
