package debbugs

import (
	"bufio"
	"errors"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/taxonomy"
)

const sampleBug = `Bug: #771
Package: panel
Severity: grave
Version: 1.0.9
Tags: confirmed
Subject: clicking the tasklist tab kills the pager
Date: Mon, 05 Jul 1999 14:22:00 +0000

Clicking on the "tasklist" tab in gnome-pager settings causes the
pager to die immediately.

Steps to reproduce:
1. Right-click the pager, choose Properties.
2. Click the "tasklist" tab.

The pager segfaults every time.

Message #2
I can confirm this on Red Hat 6.0 with panel 1.0.9.

Message #3
Fixed in CVS; the tab callback dereferenced a NULL applet pointer.
`

const sampleCVSLog = `RCS file: /cvs/gnome/gnome-core/panel/pager.c,v
----------------------------
revision 1.42
date: 1999/07/08 10:00:00;  author: dev;
Fixes bug #771: guard the tasklist tab callback against a NULL
applet pointer.
----------------------------
revision 1.41
date: 1999/07/01 09:00:00;  author: dev;
Cosmetic cleanups.
=============================================================
`

func TestParseBug(t *testing.T) {
	b, err := Parse(strings.NewReader(sampleBug))
	if err != nil {
		t.Fatal(err)
	}
	if b.Number != 771 {
		t.Errorf("Number = %d", b.Number)
	}
	if b.Package != "panel" {
		t.Errorf("Package = %q", b.Package)
	}
	if b.Severity != "grave" {
		t.Errorf("Severity = %q", b.Severity)
	}
	if b.Version != "1.0.9" {
		t.Errorf("Version = %q", b.Version)
	}
	if len(b.Tags) != 1 || b.Tags[0] != "confirmed" {
		t.Errorf("Tags = %v", b.Tags)
	}
	if b.Subject != "clicking the tasklist tab kills the pager" {
		t.Errorf("Subject = %q", b.Subject)
	}
	want := time.Date(1999, 7, 5, 14, 22, 0, 0, time.UTC)
	if !b.Date.Equal(want) {
		t.Errorf("Date = %v, want %v", b.Date, want)
	}
	if len(b.FollowUps) != 2 {
		t.Fatalf("FollowUps = %d, want 2", len(b.FollowUps))
	}
	if !strings.Contains(b.FollowUps[1], "Fixed in CVS") {
		t.Errorf("follow-up 1 = %q", b.FollowUps[1])
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("Package: panel\n\nbody\n")); err == nil {
		t.Error("missing Bug header should fail")
	}
	if _, err := Parse(strings.NewReader("Bug: #xyz\n\nbody\n")); err == nil {
		t.Error("bad bug number should fail")
	}
	if _, err := Parse(strings.NewReader("not a header line\n\nbody\n")); err == nil {
		t.Error("malformed header should fail")
	}
}

func TestSubjectFallsBackToFirstBodyLine(t *testing.T) {
	raw := "Bug: #9\nPackage: gmc\nSeverity: grave\n\nDouble-clicking a tar.gz icon crashes gmc.\nMore detail here.\n"
	b, err := Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.Subject != "Double-clicking a tar.gz icon crashes gmc." {
		t.Errorf("Subject = %q", b.Subject)
	}
}

func TestParseCVSLog(t *testing.T) {
	commits, err := ParseCVSLog(strings.NewReader(sampleCVSLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 2 {
		t.Fatalf("commits = %d, want 2", len(commits))
	}
	fix := commits[0]
	if fix.Revision != "1.42" {
		t.Errorf("Revision = %q", fix.Revision)
	}
	if fix.BugNumber != 771 {
		t.Errorf("BugNumber = %d", fix.BugNumber)
	}
	if !strings.Contains(fix.Module, "pager.c") {
		t.Errorf("Module = %q", fix.Module)
	}
	if commits[1].BugNumber != 0 {
		t.Errorf("cosmetic commit claimed bug #%d", commits[1].BugNumber)
	}
}

func TestExtractBugNumberVariants(t *testing.T) {
	tests := []struct {
		log  string
		want int
	}{
		{"Fixes bug #123: guard pointer", 123},
		{"fix bug #45", 45},
		{"Closes #9", 9},
		{"see bug #77 for details", 77},
		{"no reference here", 0},
	}
	for _, tt := range tests {
		if got := extractBugNumber(tt.log); got != tt.want {
			t.Errorf("extractBugNumber(%q) = %d, want %d", tt.log, got, tt.want)
		}
	}
}

func TestToReport(t *testing.T) {
	b, err := Parse(strings.NewReader(sampleBug))
	if err != nil {
		t.Fatal(err)
	}
	commits, err := ParseCVSLog(strings.NewReader(sampleCVSLog))
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.ToReport(commits)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "GB-771" {
		t.Errorf("ID = %q", r.ID)
	}
	if r.App != taxonomy.AppGnome {
		t.Errorf("App = %v", r.App)
	}
	if r.Severity != taxonomy.SeverityCritical { // grave -> critical
		t.Errorf("Severity = %v", r.Severity)
	}
	if r.Symptom != taxonomy.SymptomCrash {
		t.Errorf("Symptom = %v", r.Symptom)
	}
	if !strings.Contains(r.HowToRepeat, "tasklist") {
		t.Errorf("HowToRepeat = %q", r.HowToRepeat)
	}
	if !strings.Contains(r.FixDescription, "NULL") {
		t.Errorf("FixDescription = %q", r.FixDescription)
	}
	if !r.Qualifies() {
		t.Error("report should qualify")
	}
}

func TestCVSVersionNotProduction(t *testing.T) {
	raw := strings.Replace(sampleBug, "Version: 1.0.9", "Version: 1.0.9-cvs", 1)
	b, err := Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.ToReport(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Production {
		t.Error("CVS snapshot must not count as production")
	}
}

func TestExtractHowToRepeatNumberedFallback(t *testing.T) {
	body := "The pager dies.\n1. open properties\n2) click tab\nsome trailing text"
	got := extractHowToRepeat(body)
	if !strings.Contains(got, "open properties") || !strings.Contains(got, "click tab") {
		t.Errorf("extractHowToRepeat = %q", got)
	}
}

func TestExtractHowToRepeatEmpty(t *testing.T) {
	if got := extractHowToRepeat("no steps at all"); got != "" {
		t.Errorf("extractHowToRepeat = %q, want empty", got)
	}
}

func BenchmarkParseBug(b *testing.B) {
	b.SetBytes(int64(len(sampleBug)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strings.NewReader(sampleBug)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseCVSLog(b *testing.B) {
	b.SetBytes(int64(len(sampleCVSLog)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCVSLog(strings.NewReader(sampleCVSLog)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseLongLines: in a bug log and in a CVS log, a 200 KiB line parses,
// and a line over the 1 MiB cap fails with bufio.ErrTooLong.
func TestParseLongLines(t *testing.T) {
	long := strings.Repeat("a", 200<<10)
	tooLong := strings.Repeat("a", 1<<20+1)

	const bugMarker = "pager to die immediately."
	b, err := Parse(strings.NewReader(strings.Replace(sampleBug, bugMarker, long, 1)))
	if err != nil {
		t.Fatalf("bug log, 200 KiB line: %v", err)
	}
	if !strings.Contains(b.Body, long) {
		t.Errorf("bug log, 200 KiB line lost: body is %d bytes", len(b.Body))
	}
	if _, err := Parse(strings.NewReader(strings.Replace(sampleBug, bugMarker, tooLong, 1))); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("bug log, line over 1 MiB: error %v, want bufio.ErrTooLong", err)
	}

	const cvsMarker = "Cosmetic cleanups."
	commits, err := ParseCVSLog(strings.NewReader(strings.Replace(sampleCVSLog, cvsMarker, long, 1)))
	if err != nil {
		t.Fatalf("cvs log, 200 KiB line: %v", err)
	}
	if len(commits) != 2 || !strings.Contains(commits[1].Log, long) {
		t.Errorf("cvs log, 200 KiB line lost: %d commits", len(commits))
	}
	if _, err := ParseCVSLog(strings.NewReader(strings.Replace(sampleCVSLog, cvsMarker, tooLong, 1))); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("cvs log, line over 1 MiB: error %v, want bufio.ErrTooLong", err)
	}
}
