package experiment

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faultstudy/internal/taxonomy"
)

func TestModuleRoot(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("ModuleRoot() = %s, which has no go.mod: %v", root, err)
	}
}

func TestLintValidation(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLintWorkers(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Apps) != 3 {
		t.Fatalf("apps scored = %d, want 3", len(report.Apps))
	}
	for _, la := range report.Apps {
		if la.Sites == 0 {
			t.Errorf("%s: no attributed raise sites", la.App)
		}
		if tp := la.TruePositives(); tp < 1 {
			t.Errorf("%s: true positives = %d, want >= 1", la.App, tp)
		}
	}
	// The static classifier should agree with the seeded ground truth on
	// most mechanisms in every class.
	for _, s := range report.Total {
		if s.TP == 0 {
			t.Errorf("class %s: no true positives at all", s.Class)
		}
		if p := s.Precision(); p < 0.9 {
			t.Errorf("class %s: precision %.2f, want >= 0.90", s.Class, p)
		}
		if r := s.Recall(); r < 0.6 {
			t.Errorf("class %s: recall %.2f, want >= 0.60", s.Class, r)
		}
	}
	// The headline: the predicted EI share must track the seeded corpus
	// share (the analogue of reproducing the paper's Table 2 split).
	if d := math.Abs(report.PredictedEI.Value() - report.TruthEI.Value()); d > 0.10 {
		t.Errorf("predicted EI share %.2f vs truth %.2f: drift %.2f > 0.10",
			report.PredictedEI.Value(), report.TruthEI.Value(), d)
	}
	out := report.String()
	for _, want := range []string{"precision", "recall", "apache", "gnome", "mysql", "EI share"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestLintPredictionsDeterministic(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunLintWorkers(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLintWorkers(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two RunLintWorkers passes rendered differently")
	}
	for i, la := range a.Apps {
		lb := b.Apps[i]
		for mech, class := range la.Predicted {
			if lb.Predicted[mech] != class {
				t.Errorf("%s/%s: predicted %s then %s", la.App, mech, class, lb.Predicted[mech])
			}
		}
	}
}

func TestResolvePredicted(t *testing.T) {
	ei := taxonomy.ClassEnvIndependent
	edn := taxonomy.ClassEnvDependentNonTransient
	edt := taxonomy.ClassEnvDependentTransient
	cases := []struct {
		votes map[taxonomy.FaultClass]int
		want  taxonomy.FaultClass
	}{
		{map[taxonomy.FaultClass]int{ei: 3}, ei},
		{map[taxonomy.FaultClass]int{ei: 2, edn: 1}, edn},
		{map[taxonomy.FaultClass]int{edn: 1, edt: 2}, edt},
		{map[taxonomy.FaultClass]int{edn: 1, edt: 1}, edn}, // tie: persistent prior
		{map[taxonomy.FaultClass]int{}, taxonomy.ClassUnknown},
	}
	for _, c := range cases {
		if got := resolvePredicted(c.votes); got != c.want {
			t.Errorf("resolvePredicted(%v) = %s, want %s", c.votes, got, c.want)
		}
	}
}
