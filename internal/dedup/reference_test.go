package dedup

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// refMark is the map-based detector Mark replaced, kept as the reference of
// FuzzMark: string shingle sets, a string-keyed inverted index, and a
// Jaccard that probes one set per element of the other. The only change is
// the explicit tie rule (at equal similarity the earliest order index wins),
// without which the map's iteration order picked among tied candidates.
func refMark(reports []*report.Report) int {
	order := make([]*report.Report, len(reports))
	copy(order, reports)
	sort.SliceStable(order, func(i, j int) bool {
		if !order[i].Filed.Equal(order[j].Filed) {
			return order[i].Filed.Before(order[j].Filed)
		}
		return order[i].Key() < order[j].Key()
	})

	shingleSets := make([]map[string]struct{}, len(order))
	synopses := make([]string, len(order))
	for i, r := range order {
		shingleSets[i] = refShingles(r.Text(), shingleSize)
		synopses[i] = strings.Join(refTokenize(r.Synopsis), " ")
	}

	index := make(map[string][]int)
	marked := 0
	for i, r := range order {
		r.DuplicateOf = ""
		set := shingleSets[i]
		candSeen := make(map[int]struct{})
		best, bestSim := -1, 0.0
		for sh := range set {
			for _, j := range index[sh] {
				if _, dup := candSeen[j]; dup {
					continue
				}
				candSeen[j] = struct{}{}
				if order[j].App != r.App {
					continue
				}
				sim := refJaccard(set, shingleSets[j])
				match := sim >= threshold
				if !match && sim >= minContainmentSim {
					match = synopsisContains(synopses[i], synopses[j])
				}
				if match && (sim > bestSim || sim == bestSim && j < best) {
					best, bestSim = j, sim
				}
			}
		}
		if best >= 0 {
			r.DuplicateOf = order[best].ID
			marked++
			continue
		}
		for sh := range set {
			if len(index[sh]) < maxDocFreq {
				index[sh] = append(index[sh], i)
			}
		}
	}
	return marked
}

// refShingles is the set of k-word shingles of the normalized text; a text
// shorter than k words yields one shingle of the whole text.
func refShingles(text string, k int) map[string]struct{} {
	words := refTokenize(text)
	set := make(map[string]struct{}, len(words))
	if len(words) == 0 {
		return set
	}
	if len(words) < k {
		set[strings.Join(words, " ")] = struct{}{}
		return set
	}
	for i := 0; i+k <= len(words); i++ {
		set[strings.Join(words[i:i+k], " ")] = struct{}{}
	}
	return set
}

func refJaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for s := range small {
		if _, ok := large[s]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// refTokenize lowercases and splits text into alphanumeric word runs.
func refTokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
}

// fuzzVocab is FuzzMark's word pool: few enough words that reports share
// shingles often, with mixed case, punctuation and non-ASCII letters (the
// Kelvin sign lowercases to an ASCII k) to exercise normalization.
var fuzzVocab = []string{
	"server", "crash", "SEGFAULT", "dies", "on", "every", "request", "the",
	"url", "long,", "table", "optimize", "KKel", "naïve", "2.2", "İd",
}

// fuzzBoilerplate is a shared header, long enough that more than maxDocFreq
// canonicals can carry its shingles.
const fuzzBoilerplate = "please fill in the form below describing the problem"

// fuzzReports decodes data into a report set: each report takes four bytes
// (application, filing day, synopsis, body), so applications mix, filing
// days tie, texts run from empty to a few dozen words, and a shared header
// on many reports drives shingles past the doc-frequency cap.
func fuzzReports(data []byte) []*report.Report {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	apps := []taxonomy.Application{taxonomy.AppApache, taxonomy.AppApache, taxonomy.AppGnome, taxonomy.AppMySQL}
	var out []*report.Report
	for i := 0; i+4 <= len(data) && len(out) < maxDocFreq+16; i += 4 {
		app, day, syn, body := data[i], data[i+1], data[i+2], data[i+3]
		words := func(seed byte, n int) string {
			ws := make([]string, n)
			for k := range ws {
				ws[k] = fuzzVocab[(int(seed)*(k+3)+k*k)%len(fuzzVocab)]
			}
			return strings.Join(ws, " ")
		}
		desc := words(body, int(body%24))
		if body&0x80 != 0 {
			desc = fuzzBoilerplate + " " + desc
		}
		if body&0x40 != 0 {
			desc += fmt.Sprintf(" own%d own%dx", len(out), len(out))
		}
		out = append(out, &report.Report{
			ID:          fmt.Sprintf("R-%d", len(out)),
			App:         apps[app%4],
			Synopsis:    words(syn, int(syn%7)),
			Description: desc,
			Filed:       t0.AddDate(0, 0, int(day%16)),
		})
	}
	return out
}

// FuzzMark checks Mark against refMark: both mark the same count, and every
// report names the same canonical.
func FuzzMark(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 5, 0, 1, 5, 5, 1, 2, 5, 5, 0, 3, 6, 200})
	boiler := make([]byte, 0, 4*(maxDocFreq+16))
	for i := 0; i < maxDocFreq+16; i++ {
		boiler = append(boiler, byte(i%2), byte(i), byte(i*7), 0xC0|byte(i%24))
	}
	f.Add(boiler)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := fuzzReports(data), fuzzReports(data)
		n, wantN := Mark(got), refMark(want)
		if n != wantN {
			t.Errorf("Mark marked %d, reference %d", n, wantN)
		}
		for i := range got {
			if got[i].DuplicateOf != want[i].DuplicateOf {
				t.Errorf("%s: DuplicateOf %q, reference %q", got[i].ID, got[i].DuplicateOf, want[i].DuplicateOf)
			}
		}
	})
}

// TestMarkTieBreaksByEarliest: C's synopsis contains both A's and B's, and C
// is 0.3 similar to each, so both are matching candidates of equal
// similarity. The earlier-filed of the two must win, every call. A decoy of
// another application, filed first, takes the lowest shingle IDs with B's
// synopsis words, so C visits B before A; the tie rule, not the visiting
// order, must still pick A.
func TestMarkTieBreaksByEarliest(t *testing.T) {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := func(prefix string, n int) string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = fmt.Sprintf("%s%d", prefix, i+1)
		}
		return strings.Join(ws, " ")
	}
	for _, tc := range []struct {
		aDay, bDay int
		decoy      bool
		want       string
	}{
		{aDay: 1, bDay: 2, want: "A"},
		{aDay: 2, bDay: 1, want: "B"},
		{aDay: 1, bDay: 2, decoy: true, want: "A"},
	} {
		a := &report.Report{ID: "A", App: taxonomy.AppApache, Filed: t0.AddDate(0, 0, tc.aDay),
			Synopsis: seq("s", 4), Description: seq("u", 6)}
		b := &report.Report{ID: "B", App: taxonomy.AppApache, Filed: t0.AddDate(0, 0, tc.bDay),
			Synopsis: seq("t", 4), Description: seq("v", 6)}
		c := &report.Report{ID: "C", App: taxonomy.AppApache, Filed: t0.AddDate(0, 0, 3),
			Synopsis: seq("s", 4) + " " + seq("t", 4), Description: seq("u", 6) + " " + seq("v", 6)}
		if simA, simB := similarity(c.Text(), a.Text()), similarity(c.Text(), b.Text()); simA != simB || simA >= threshold {
			t.Fatalf("premise: similarities %.3f and %.3f are not an equal sub-threshold tie", simA, simB)
		}
		reports := []*report.Report{c, b, a}
		if tc.decoy {
			reports = append(reports, &report.Report{ID: "Z", App: taxonomy.AppGnome, Filed: t0, Synopsis: seq("t", 4)})
		}
		for call := 0; call < 200; call++ {
			if n := Mark(reports); n != 1 || c.DuplicateOf != tc.want {
				t.Fatalf("call %d (A day %d, B day %d, decoy %v): marked %d, C duplicates %q, want %s",
					call, tc.aDay, tc.bDay, tc.decoy, n, c.DuplicateOf, tc.want)
			}
		}
	}
}
