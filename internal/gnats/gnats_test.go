package gnats

import (
	"bufio"
	"errors"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/taxonomy"
)

const samplePR = `>Number:         3893
>Category:       general
>Synopsis:       httpd dies with a segfault when the submitted URL is very long
>Confidential:   no
>Severity:       critical
>Priority:       medium
>Responsible:    apache
>State:          closed
>Class:          sw-bug
>Submitter-Id:   apache
>Arrival-Date:   Mon Feb 15 10:20:01 PST 1999
>Originator:     user@example.com
>Organization:
>Release:        1.3.4
>Environment:
Linux 2.2.1 i686, gcc 2.8.1
>Description:
The server child dies with a segmentation fault whenever a browser
submits a URL longer than 8000 characters. The hash calculation in
the URI handling overflows.
>How-To-Repeat:
Request a URL of 9000 'a' characters against any virtual host.
Happens every time, on every machine we tried.
>Fix:
Bounds-check the hash calculation before indexing.
>Audit-Trail:
State-Changed-From-To: open-analyzed
State-Changed-By: coar
State-Changed-When: Tue Feb 16 08:00:00 PST 1999
State-Changed-Why:
Reproduced on Linux and Solaris. Deterministic.
Comment-Added-By: fielding
Comment-Added-When: Wed Feb 17 09:00:00 PST 1999
Comment-Added:
Fixed in rev 1.52 of util_uri.c; will ship in 1.3.6.
>Unformatted:
`

func TestParsePR(t *testing.T) {
	pr, err := Parse(strings.NewReader(samplePR))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Number != 3893 {
		t.Errorf("Number = %d", pr.Number)
	}
	if pr.Category != "general" {
		t.Errorf("Category = %q", pr.Category)
	}
	if pr.Severity != "critical" {
		t.Errorf("Severity = %q", pr.Severity)
	}
	if pr.Release != "1.3.4" {
		t.Errorf("Release = %q", pr.Release)
	}
	if !strings.Contains(pr.Description, "hash calculation") {
		t.Errorf("Description = %q", pr.Description)
	}
	if !strings.Contains(pr.HowToRepeat, "9000 'a'") {
		t.Errorf("HowToRepeat = %q", pr.HowToRepeat)
	}
	if !strings.Contains(pr.Fix, "Bounds-check") {
		t.Errorf("Fix = %q", pr.Fix)
	}
	// Named-zone abbreviations parse with a zero offset absent zone data, so
	// only the calendar fields are asserted.
	if y, m, d := pr.Arrival.Date(); y != 1999 || m != time.February || d != 15 {
		t.Errorf("Arrival = %v, want 1999-02-15", pr.Arrival)
	}
	if len(pr.AuditTrail) != 2 {
		t.Fatalf("AuditTrail has %d comments, want 2: %q", len(pr.AuditTrail), pr.AuditTrail)
	}
	if !strings.Contains(pr.AuditTrail[0], "Reproduced on Linux") {
		t.Errorf("comment 0 = %q", pr.AuditTrail[0])
	}
	if !strings.Contains(pr.AuditTrail[1], "rev 1.52") {
		t.Errorf("comment 1 = %q", pr.AuditTrail[1])
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Parse(strings.NewReader(">Synopsis: no number\n")); err == nil {
		t.Error("missing >Number should fail")
	}
	if _, err := Parse(strings.NewReader(">Number: abc\n")); err == nil {
		t.Error("non-numeric number should fail")
	}
}

func TestToReport(t *testing.T) {
	pr, err := Parse(strings.NewReader(samplePR))
	if err != nil {
		t.Fatal(err)
	}
	r, err := pr.ToReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "PR-3893" {
		t.Errorf("ID = %q", r.ID)
	}
	if r.App != taxonomy.AppApache {
		t.Errorf("App = %v", r.App)
	}
	if r.Severity != taxonomy.SeverityCritical {
		t.Errorf("Severity = %v", r.Severity)
	}
	if r.Symptom != taxonomy.SymptomCrash {
		t.Errorf("Symptom = %v", r.Symptom)
	}
	if !r.Production {
		t.Error("release 1.3.4 is a production version")
	}
	if !r.Qualifies() {
		t.Error("report should meet the study bar")
	}
	if len(r.Comments) != 2 {
		t.Errorf("Comments = %d", len(r.Comments))
	}
}

func TestBetaReleaseNotProduction(t *testing.T) {
	beta := strings.Replace(samplePR, ">Release:        1.3.4", ">Release: 1.3b3 beta", 1)
	pr, err := Parse(strings.NewReader(beta))
	if err != nil {
		t.Fatal(err)
	}
	r, err := pr.ToReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.Production {
		t.Error("beta release must not count as production")
	}
	if r.Qualifies() {
		t.Error("beta-release report must not qualify")
	}
}

func TestInferSymptom(t *testing.T) {
	tests := []struct {
		text string
		want taxonomy.Symptom
	}{
		{"server dumps core on restart", taxonomy.SymptomCrash},
		{"apache freezes under load", taxonomy.SymptomHang},
		{"remote exploit via cgi", taxonomy.SymptomSecurity},
		{"returns wrong content-length", taxonomy.SymptomError},
		{"documentation typo", taxonomy.SymptomUnknown},
		// Crash outranks error when both appear.
		{"error log fills then the server crashes", taxonomy.SymptomCrash},
	}
	for _, tt := range tests {
		if got := InferSymptom(tt.text); got != tt.want {
			t.Errorf("InferSymptom(%q) = %v, want %v", tt.text, got, tt.want)
		}
	}
}

func TestUnknownSeverityTolerated(t *testing.T) {
	odd := strings.Replace(samplePR, ">Severity:       critical", ">Severity: weird", 1)
	pr, err := Parse(strings.NewReader(odd))
	if err != nil {
		t.Fatal(err)
	}
	r, err := pr.ToReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.Severity != taxonomy.SeverityUnknown {
		t.Errorf("Severity = %v, want unknown", r.Severity)
	}
}

func TestFixUnknownDropped(t *testing.T) {
	odd := strings.Replace(samplePR, "Bounds-check the hash calculation before indexing.", "unknown", 1)
	pr, err := Parse(strings.NewReader(odd))
	if err != nil {
		t.Fatal(err)
	}
	r, err := pr.ToReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.FixDescription != "" {
		t.Errorf("FixDescription = %q, want empty for 'unknown'", r.FixDescription)
	}
}

func BenchmarkParsePR(b *testing.B) {
	b.SetBytes(int64(len(samplePR)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strings.NewReader(samplePR)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferSymptom(b *testing.B) {
	const text = "the server freezes under load and then dumps core while rotating logs"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = InferSymptom(text)
	}
}

// TestParseLongLines: a 200 KiB line parses, and a line over the 1 MiB cap
// fails with bufio.ErrTooLong.
func TestParseLongLines(t *testing.T) {
	const marker = "The server child dies with a segmentation fault whenever"
	long := strings.Repeat("a", 200<<10)
	pr, err := Parse(strings.NewReader(strings.Replace(samplePR, marker, long, 1)))
	if err != nil {
		t.Fatalf("200 KiB line: %v", err)
	}
	if !strings.Contains(pr.Description, long) {
		t.Errorf("200 KiB line lost: description is %d bytes", len(pr.Description))
	}
	tooLong := strings.Repeat("a", 1<<20+1)
	if _, err := Parse(strings.NewReader(strings.Replace(samplePR, marker, tooLong, 1))); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line over 1 MiB: error %v, want bufio.ErrTooLong", err)
	}
}
