package faultlint

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONSchema validates the machine-readable report against the schema
// documented in EXPERIMENTS.md (LINT): top-level version/packages/rules/
// diagnostics/summary, per-diagnostic rule/class/file/line/col/message, and
// summary tallies that add up.
func TestJSONSchema(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	result, err := Run([]*Package{pkg}, []string{"wallclock"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := RenderJSON(result)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Version     int      `json:"version"`
		Packages    int      `json:"packages"`
		Rules       []string `json:"rules"`
		Diagnostics []struct {
			Rule    string `json:"rule"`
			Class   string `json:"class"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Message string `json:"message"`

			Suppressed     bool   `json:"suppressed"`
			SuppressReason string `json:"suppressReason"`
		} `json:"diagnostics"`
		Summary struct {
			Active     int            `json:"active"`
			Suppressed int            `json:"suppressed"`
			ByRule     map[string]int `json:"byRule"`
			ByClass    map[string]int `json:"byClass"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, data)
	}
	if report.Version != JSONSchemaVersion {
		t.Errorf("version = %d, want %d", report.Version, JSONSchemaVersion)
	}
	if report.Packages != 1 {
		t.Errorf("packages = %d, want 1", report.Packages)
	}
	if len(report.Rules) != 1 || report.Rules[0] != "wallclock" {
		t.Errorf("rules = %v, want [wallclock]", report.Rules)
	}
	if len(report.Diagnostics) == 0 {
		t.Fatal("no diagnostics in report")
	}
	active, suppressed := 0, 0
	for _, d := range report.Diagnostics {
		if d.Rule != "wallclock" || d.Class != "environment-dependent-transient" {
			t.Errorf("diagnostic rule/class = %s/%s", d.Rule, d.Class)
		}
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Message == "" {
			t.Errorf("diagnostic with missing position/message: %+v", d)
		}
		if d.Suppressed {
			suppressed++
		} else {
			active++
		}
	}
	if report.Summary.Active != active || report.Summary.Suppressed != suppressed {
		t.Errorf("summary active/suppressed = %d/%d, tallied %d/%d",
			report.Summary.Active, report.Summary.Suppressed, active, suppressed)
	}
	if report.Summary.ByRule["wallclock"] != active {
		t.Errorf("byRule[wallclock] = %d, want %d (active only)",
			report.Summary.ByRule["wallclock"], active)
	}
	if report.Summary.ByClass["environment-dependent-transient"] != active {
		t.Errorf("byClass = %v, want %d under environment-dependent-transient",
			report.Summary.ByClass, active)
	}
}

// TestRenderText checks the human format: one position-prefixed line per
// active finding, suppressed lines only under -v, and the trailing summary.
func TestRenderText(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	result, err := Run([]*Package{pkg}, []string{"wallclock"})
	if err != nil {
		t.Fatal(err)
	}
	quiet := RenderText(result, false)
	verbose := RenderText(result, true)
	if !strings.Contains(quiet, "faultlint:") {
		t.Errorf("no summary line:\n%s", quiet)
	}
	if strings.Contains(quiet, "suppressed)") == strings.Contains(quiet, "ignored") {
		// Suppressed findings must be counted in the summary but not listed.
		t.Logf("quiet output:\n%s", quiet)
	}
	if len(verbose) <= len(quiet) {
		t.Errorf("verbose output not longer than quiet output")
	}
	for _, d := range activeOf(result) {
		if !strings.Contains(quiet, d.Pos()) {
			t.Errorf("active finding %s missing from text output", d.Pos())
		}
	}
}

// TestRunRuleSubset checks unknown-rule rejection and subset selection.
func TestRunRuleSubset(t *testing.T) {
	pkg := loadFixture(t, "wallclock")
	if _, err := Run([]*Package{pkg}, []string{"nosuchrule"}); err == nil {
		t.Error("Run with unknown rule did not fail")
	}
	result, err := Run([]*Package{pkg}, []string{"rawrand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Diagnostics) != 0 {
		t.Errorf("rawrand over the wallclock fixture found %d diagnostics, want 0",
			len(result.Diagnostics))
	}
}

// TestLoadSkipsNonPackageDirs checks the ./... expansion skips testdata and
// hidden trees.
func TestLoadSkipsNonPackageDirs(t *testing.T) {
	pkgs, err := Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(./...) from internal/faultlint = %d packages, want just this one", len(pkgs))
	}
	if pkgs[0].Name != "faultlint" {
		t.Errorf("loaded package %q, want faultlint", pkgs[0].Name)
	}
}

// TestAnalyzersHaveDocsAndClasses guards the suite's self-description, which
// cmd/faultlint -list prints.
func TestAnalyzersHaveDocsAndClasses(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
		if _, ok := LookupAnalyzer(a.Name); !ok {
			t.Errorf("LookupAnalyzer(%s) failed", a.Name)
		}
	}
	if _, ok := LookupAnalyzer("nosuchrule"); ok {
		t.Error("LookupAnalyzer accepted an unknown name")
	}
}

// TestStubImporterTolerance: loading a package whose imports cannot be
// resolved must not error; type information degrades, syntax survives.
func TestStubImporterTolerance(t *testing.T) {
	pkg, err := LoadDir(token.NewFileSet(), filepath.Join("testdata", "envsite"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files parsed")
	}
	// The fixture imports "sim/faultinject", which does not exist on disk;
	// the stub importer must have satisfied it rather than failing the load.
	if pkg.Name != "envsite" {
		t.Errorf("package name = %q", pkg.Name)
	}
}

// TestAdvisoryGating: envsite findings are advisory — present in the report
// and in Active(), absent from Gating() — while defect-rule findings gate.
func TestAdvisoryGating(t *testing.T) {
	pkg := loadFixture(t, "envsite")
	result, err := Run([]*Package{pkg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var advisories, gating int
	for _, d := range result.Diagnostics {
		if d.Advisory != (d.Rule == "envsite") {
			t.Errorf("%s: rule %s advisory=%v", d.Pos(), d.Rule, d.Advisory)
		}
		if d.Advisory {
			advisories++
		}
	}
	gating = len(result.Gating())
	if advisories == 0 {
		t.Fatal("no advisory envsite findings over the envsite fixture")
	}
	if len(activeOf(result)) != advisories+gating {
		t.Errorf("Active()=%d, advisory=%d + gating=%d", len(activeOf(result)), advisories, gating)
	}
	for _, d := range result.Gating() {
		if d.Advisory || d.Suppressed {
			t.Errorf("Gating() returned advisory/suppressed finding %s [%s]", d.Pos(), d.Rule)
		}
	}
}

// activeOf returns the unsuppressed findings.
func activeOf(r *Result) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
