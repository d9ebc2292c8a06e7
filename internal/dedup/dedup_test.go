package dedup

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

func mk(id string, app taxonomy.Application, filed time.Time, text string) *report.Report {
	return &report.Report{
		ID:          id,
		App:         app,
		Synopsis:    text,
		Description: text,
		Filed:       filed,
	}
}

func TestShingles(t *testing.T) {
	var in interner
	set := in.shingles("the server dies with a segfault")
	if len(set) != 4 {
		t.Errorf("got %d shingles, want 4", len(set))
	}
	if !slices.IsSorted(set) {
		t.Errorf("shingle set %v is not sorted", set)
	}
	// Case and punctuation do not split a shingle: the same words intern to
	// the same ID.
	if again := in.shingles("The server, dies!"); len(again) != 1 || !slices.Contains(set, again[0]) {
		t.Errorf("\"The server, dies!\" = %v, want one shingle of %v", again, set)
	}
	// A repeated shingle counts once.
	if rep := in.shingles("a b c a b c a b c"); len(rep) != 3 {
		t.Errorf("repeated text has %d shingles, want 3", len(rep))
	}
	// Short text collapses to one shingle, distinct from any longer text's.
	short := in.shingles("the server")
	if len(short) != 1 || slices.Contains(set, short[0]) {
		t.Errorf("short text shingles = %v (long text %v)", short, set)
	}
	if len(in.shingles("")) != 0 || len(in.shingles(" ,; ")) != 0 {
		t.Error("a text without words should have no shingles")
	}
}

// similarity is the Jaccard similarity of two texts' shingle sets.
func similarity(a, b string) float64 {
	var in interner
	return jaccard(in.shingles(a), in.shingles(b))
}

func TestSimilarity(t *testing.T) {
	a := "the server dies with a segfault when the submitted url is very long"
	b := "server dies with a segfault when the submitted url is very long indeed"
	if sim := similarity(a, b); sim < 0.5 {
		t.Errorf("near-duplicates similarity = %.2f, want >= 0.5", sim)
	}
	c := "optimize table crashes the database server"
	if sim := similarity(a, c); sim > 0.1 {
		t.Errorf("unrelated similarity = %.2f, want ~0", sim)
	}
	if similarity(a, a) != 1.0 {
		t.Error("self similarity should be 1")
	}
}

func TestMarkDetectsDuplicates(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	core := "the server dies with a segfault when the submitted url is very long, " +
		"hash overflow in the uri processing code, happens on every request " +
		"longer than eight thousand characters regardless of configuration"
	canonical := mk("PR-1", taxonomy.AppApache, t0, core)
	dup := mk("PR-2", taxonomy.AppApache, t0.AddDate(0, 0, 5),
		core+" also seen here on linux 2.2 with the same config")
	other := mk("PR-3", taxonomy.AppApache, t0.AddDate(0, 0, 7),
		"optimize table query crashes the server because of a missing initialization statement")

	n := Mark([]*report.Report{dup, canonical, other})
	if n != 1 {
		t.Fatalf("marked %d, want 1", n)
	}
	if dup.DuplicateOf != "PR-1" {
		t.Errorf("dup.DuplicateOf = %q, want PR-1", dup.DuplicateOf)
	}
	if canonical.DuplicateOf != "" || other.DuplicateOf != "" {
		t.Error("canonical/other should not be marked")
	}
}

func TestMarkCanonicalIsEarliest(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	text := "panel applet crashes when the tasklist tab is clicked in the settings dialog"
	later := mk("GB-9", taxonomy.AppGnome, t0.AddDate(0, 1, 0), text)
	earlier := mk("GB-2", taxonomy.AppGnome, t0, text)
	Mark([]*report.Report{later, earlier})
	if later.DuplicateOf != "GB-2" {
		t.Errorf("later.DuplicateOf = %q, want GB-2", later.DuplicateOf)
	}
	if earlier.DuplicateOf != "" {
		t.Error("earliest report must stay canonical")
	}
}

func TestMarkAppsNeverCrossMatch(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	text := "the server crashes with a segmentation fault on startup every single time"
	a := mk("PR-1", taxonomy.AppApache, t0, text)
	m := mk("M-1", taxonomy.AppMySQL, t0.AddDate(0, 0, 1), text)
	if n := Mark([]*report.Report{a, m}); n != 0 {
		t.Errorf("cross-app duplicates marked: %d", n)
	}
}

func TestMarkChainCollapsesToOneCanonical(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	base := "mysqld dies during optimize table with a segmentation fault missing initialization"
	var reports []*report.Report
	for i := 0; i < 5; i++ {
		reports = append(reports, mk(fmt.Sprintf("M-%d", i), taxonomy.AppMySQL,
			t0.AddDate(0, 0, i), fmt.Sprintf("%s variant %d", base, i)))
	}
	n := Mark(reports)
	if n != 4 {
		t.Fatalf("marked %d, want 4", n)
	}
	for i := 1; i < 5; i++ {
		if reports[i].DuplicateOf != "M-0" {
			t.Errorf("report %d duplicates %q, want M-0", i, reports[i].DuplicateOf)
		}
	}
	if got := len(report.Canonical(reports)); got != 1 {
		t.Errorf("canonical count = %d, want 1", got)
	}
}

func TestMarkIdempotent(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	text := "gnumeric crashes if a tab is pressed in the define name dialog due to bad initialization"
	a := mk("GB-1", taxonomy.AppGnome, t0, text)
	b := mk("GB-2", taxonomy.AppGnome, t0.AddDate(0, 0, 1), text+" also on red hat")
	rs := []*report.Report{a, b}
	first := Mark(rs)
	second := Mark(rs)
	if first != second {
		t.Errorf("Mark not idempotent: %d then %d", first, second)
	}
}

func TestMarkThresholdRespected(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	a := mk("PR-1", taxonomy.AppApache, t0,
		"server dies with a segfault when the requested url is long")
	b := mk("PR-2", taxonomy.AppApache, t0.AddDate(0, 0, 1),
		"server dies with a segfault when the requested url is malformed")
	// The pair shares all but its last word, which keeps it just below the
	// 0.6 threshold, and neither synopsis contains the other, so nothing
	// matches.
	if sim := similarity(a.Text(), b.Text()); sim < 0.55 || sim >= 0.6 {
		t.Fatalf("premise: similarity %.2f is not just below the threshold", sim)
	}
	if n := Mark([]*report.Report{a, b}); n != 0 {
		t.Errorf("marked %d below the threshold", n)
	}
}

// Property: Mark never marks more than len(reports)-1 duplicates, never marks
// a report as its own duplicate, and every DuplicateOf names a canonical
// report.
func TestMarkInvariantsProperty(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	texts := []string{
		"server dies with a segfault when the submitted url is very long",
		"optimize table crashes the server missing initialization",
		"panel applet dies when tasklist tab clicked",
		"full file system prevents all operations on the database",
	}
	f := func(choice []uint8) bool {
		if len(choice) == 0 || len(choice) > 20 {
			return true
		}
		var rs []*report.Report
		for i, c := range choice {
			rs = append(rs, mk(fmt.Sprintf("R-%d", i), taxonomy.AppApache,
				t0.AddDate(0, 0, i), texts[int(c)%len(texts)]))
		}
		n := Mark(rs)
		if n >= len(rs) && len(rs) > 0 {
			return false
		}
		ids := make(map[string]*report.Report)
		for _, r := range rs {
			ids[r.ID] = r
		}
		for _, r := range rs {
			if r.DuplicateOf == r.ID {
				return false
			}
			if r.DuplicateOf != "" {
				canon, ok := ids[r.DuplicateOf]
				if !ok || canon.DuplicateOf != "" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// boilerplate is a tracker header shared by every report below: twelve
// shingles on its own.
const boilerplate = "please fill in the form below describing the problem and how to repeat it"

// withBoilerplate returns a report whose text is the shared header followed
// by words.
func withBoilerplate(id string, filed time.Time, words ...string) *report.Report {
	return &report.Report{ID: id, App: taxonomy.AppApache, Filed: filed,
		Description: boilerplate + " " + strings.Join(words, " ")}
}

// uniqueWords returns n words no other report uses.
func uniqueWords(id string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%sw%d", id, i)
	}
	return out
}

// TestMarkBoilerplateStaysDistinct: more reports than the doc-frequency cap
// share a header, and the header alone never makes them duplicates.
func TestMarkBoilerplateStaysDistinct(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	var reports []*report.Report
	for i := 0; i < maxDocFreq+10; i++ {
		id := fmt.Sprintf("PR-%d", i)
		reports = append(reports, withBoilerplate(id, t0.AddDate(0, 0, i), uniqueWords(id, 40)...))
	}
	if n := Mark(reports); n != 0 {
		t.Errorf("marked %d of %d unrelated reports sharing only a header", n, len(reports))
	}
}

// TestMarkDocFreqCapKeepsPair: a true duplicate pair shares only header
// shingles that 49 earlier reports also carry. The canonical is the 50th
// report to hold them, so a cap of 50 still indexes it and the pair is
// found; any smaller cap loses it.
func TestMarkDocFreqCapKeepsPair(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	var reports []*report.Report
	for i := 0; i < 49; i++ {
		id := fmt.Sprintf("PR-%d", i)
		reports = append(reports, withBoilerplate(id, t0.AddDate(0, 0, i), uniqueWords(id, 40)...))
	}
	a := withBoilerplate("PR-A", t0.AddDate(0, 0, 49), "segfault", "overflow")
	b := withBoilerplate("PR-B", t0.AddDate(0, 0, 50), "crash", "loop")
	if sim := similarity(a.Text(), b.Text()); sim < threshold {
		t.Fatalf("premise: pair similarity %.2f is below the threshold", sim)
	}
	reports = append(reports, a, b)
	if n := Mark(reports); n != 1 || b.DuplicateOf != "PR-A" {
		t.Errorf("marked %d, PR-B duplicates %q; want only PR-B marked, of PR-A", n, b.DuplicateOf)
	}
}

// containedPair returns two reports whose second synopsis contains the
// first's, sharing eleven description words and each adding own words of
// its own: the more own words, the lower their similarity.
func containedPair(own int) (a, b *report.Report) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	shared := strings.Join(uniqueWords("shared", 11), " ")
	a = &report.Report{ID: "PR-1", App: taxonomy.AppApache, Filed: t0,
		Synopsis:    "httpd crashes on long urls",
		Description: shared + " " + strings.Join(uniqueWords("a", own), " ")}
	b = &report.Report{ID: "PR-2", App: taxonomy.AppApache, Filed: t0.AddDate(0, 0, 1),
		Synopsis:    "httpd crashes on long urls under load",
		Description: shared + " " + strings.Join(uniqueWords("b", own), " ")}
	return a, b
}

// TestMarkContainmentFloor pins the synopsis rule's similarity floor: a
// contained pair just under 0.25 stays apart, one just above merges.
func TestMarkContainmentFloor(t *testing.T) {
	for _, tc := range []struct {
		own      int
		lo, hi   float64
		wantDups int
	}{
		{own: 16, lo: 0.22, hi: 0.25, wantDups: 0},
		{own: 14, lo: 0.25, hi: 0.28, wantDups: 1},
	} {
		a, b := containedPair(tc.own)
		sim := similarity(a.Text(), b.Text())
		if sim < tc.lo || sim >= tc.hi {
			t.Fatalf("premise: %d own words give similarity %.3f, outside [%.2f, %.2f)", tc.own, sim, tc.lo, tc.hi)
		}
		if n := Mark([]*report.Report{a, b}); n != tc.wantDups {
			t.Errorf("similarity %.3f: marked %d, want %d", sim, n, tc.wantDups)
		}
	}
}
