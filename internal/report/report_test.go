package report

import (
	"strings"
	"testing"
	"time"

	"faultstudy/internal/taxonomy"
)

func sample() *Report {
	return &Report{
		ID:          "PR-1001",
		App:         taxonomy.AppApache,
		Component:   "mod_cgi",
		Release:     "1.3.4",
		Synopsis:    "server dies with a segfault on long URL",
		Description: "Submitting a very long URL crashes the child process.",
		HowToRepeat: "GET /" + strings.Repeat("a", 9000),
		Severity:    taxonomy.SeverityCritical,
		Symptom:     taxonomy.SymptomCrash,
		Filed:       time.Date(1999, 3, 14, 0, 0, 0, 0, time.UTC),
		Production:  true,
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Report)
	}{
		{"empty id", func(r *Report) { r.ID = "  " }},
		{"unknown app", func(r *Report) { r.App = taxonomy.AppUnknown }},
		{"no text", func(r *Report) { r.Synopsis, r.Description = "", "" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := sample()
			tt.mutate(r)
			if err := r.Validate(); err == nil {
				t.Errorf("Validate should fail for %s", tt.name)
			}
		})
	}
}

func TestValidateNil(t *testing.T) {
	var r *Report
	if err := r.Validate(); err == nil {
		t.Error("Validate(nil) should fail")
	}
}

func TestQualifies(t *testing.T) {
	r := sample()
	if !r.Qualifies() {
		t.Fatal("sample should qualify")
	}

	low := sample()
	low.Severity = taxonomy.SeverityMinor
	if low.Qualifies() {
		t.Error("minor severity should not qualify")
	}

	beta := sample()
	beta.Production = false
	if beta.Qualifies() {
		t.Error("non-production release should not qualify")
	}

	mild := sample()
	mild.Symptom = taxonomy.SymptomUnknown
	if mild.Qualifies() {
		t.Error("non-high-impact symptom should not qualify")
	}

	// Mailing-list reports carry no severity; high-impact symptom suffices.
	list := sample()
	list.Severity = taxonomy.SeverityUnknown
	if !list.Qualifies() {
		t.Error("unknown severity with crash symptom should qualify")
	}
}

func TestTextContainsAllParts(t *testing.T) {
	r := sample()
	r.Comments = []string{"confirmed on linux", "fixed in 1.3.6"}
	r.FixDescription = "bounds check in hash calculation"
	text := r.Text()
	for _, want := range []string{r.Synopsis, r.Description, "confirmed on linux", "fixed in 1.3.6", "bounds check"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q", want)
		}
	}
}

func TestSortByKey(t *testing.T) {
	a := sample()
	b := sample()
	b.ID = "PR-0002"
	c := sample()
	c.App = taxonomy.AppGnome
	c.ID = "12"
	in := []*Report{c, a, b}
	Sort(in)
	if in[0].ID != "PR-0002" || in[1].ID != "PR-1001" || in[2].App != taxonomy.AppGnome {
		t.Errorf("unexpected order: %s, %s, %s", in[0].Key(), in[1].Key(), in[2].Key())
	}
}

func TestFilterQualifying(t *testing.T) {
	good := sample()
	bad := sample()
	bad.Production = false
	got := FilterQualifying([]*Report{good, bad})
	if len(got) != 1 || got[0] != good {
		t.Errorf("FilterQualifying kept %d reports, want 1", len(got))
	}
}

func TestCanonical(t *testing.T) {
	a := sample()
	dup := sample()
	dup.ID = "PR-1002"
	dup.DuplicateOf = "PR-1001"
	got := Canonical([]*Report{a, dup})
	if len(got) != 1 || got[0] != a {
		t.Errorf("Canonical kept %d, want 1", len(got))
	}
}
