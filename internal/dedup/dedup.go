// Package dedup narrows raw bug reports to unique bugs — the study's
// reduction of 5220 Apache PRs to 50 unique faults, ~500 GNOME reports to 45,
// and 44k MySQL messages to 44 (paper §4).
//
// Duplicate detection combines text similarity (Jaccard over word shingles,
// with an inverted index so the comparison stays near-linear) with a
// structural prefilter (same application). The earliest-filed report of a
// duplicate group is canonical; later members point at it via
// Report.DuplicateOf.
//
// Each Mark call interns every word to a dense int32 ID, and every shingle,
// keyed by its triple of word IDs, to a dense int32 ID of its own. A
// report's shingle set is a sorted, deduplicated []int32, so the exact
// Jaccard similarity of two reports is one merge of two slices, and the
// inverted index is a slice indexed by shingle ID. Candidates are visited in
// shingle-ID order, and among candidates of equal similarity the
// earliest-filed one wins, so the canonical a duplicate names never depends
// on visiting order.
package dedup

import (
	"slices"
	"sort"
	"strings"

	"faultstudy/internal/report"
)

// The duplicate detector's settings, one fixed configuration for every
// mining run.
const (
	// shingleSize is the word-shingle width.
	shingleSize = 3
	// threshold is the Jaccard similarity at or above which two reports are
	// duplicates.
	threshold = 0.6
	// maxDocFreq drops shingles appearing in more than this many reports
	// from the candidate index (boilerplate suppression).
	maxDocFreq = 50
	// minContainmentSim is the body-similarity floor of the synopsis rule: a
	// report whose normalized synopsis contains (or equals) an earlier
	// canonical's synopsis, with at least this body similarity, is that
	// report's duplicate even below threshold. Trackers title re-reports
	// with the same summary, so the rule is what lets short reports dedup
	// reliably.
	minContainmentSim = 0.25
)

// Mark detects duplicate reports in place: for every duplicate it sets
// DuplicateOf to the canonical (earliest-filed) report's ID and returns the
// number of reports so marked. Reports of different applications are never
// duplicates of each other. Of several matching canonicals, the most similar
// one wins, and at equal similarity the earliest-filed one.
func Mark(reports []*report.Report) int {
	order := byFiling(reports)

	var in interner
	sets := make([][]int32, len(order))
	synopses := make([]string, len(order))
	for i, r := range order {
		sets[i] = in.shingles(r.Text())
		synopses[i] = normalizeSynopsis(r.Synopsis)
	}

	// Inverted index: shingle ID -> order indices of the canonical reports
	// containing it.
	index := make([][]int32, len(in.shingleIDs))
	// seen[j] == i+1 once candidate j has been scored for report i.
	seen := make([]int32, len(order))
	marked := 0

	for i, r := range order {
		r.DuplicateOf = ""
		set := sets[i]
		stamp := int32(i + 1)
		best, bestSim := -1, 0.0
		for _, sh := range set {
			for _, j := range index[sh] {
				if seen[j] == stamp {
					continue
				}
				seen[j] = stamp
				if order[j].App != r.App {
					continue
				}
				sim := jaccard(set, sets[j])
				match := sim >= threshold
				if !match && sim >= minContainmentSim {
					match = synopsisContains(synopses[i], synopses[j])
				}
				if match && (sim > bestSim || sim == bestSim && int(j) < best) {
					best, bestSim = int(j), sim
				}
			}
		}
		if best >= 0 {
			r.DuplicateOf = order[best].ID
			marked++
			continue
		}
		// Canonical: index its shingles (subject to the doc-frequency cap).
		for _, sh := range set {
			if len(index[sh]) < maxDocFreq {
				index[sh] = append(index[sh], int32(i))
			}
		}
	}
	return marked
}

// byFiling returns the reports earliest-filed first, so canonical reports
// are seen before their duplicates; ties break by key for determinism.
func byFiling(reports []*report.Report) []*report.Report {
	type keyed struct {
		r   *report.Report
		key string
	}
	ks := make([]keyed, len(reports))
	for i, r := range reports {
		ks[i] = keyed{r, r.Key()}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if !ks[i].r.Filed.Equal(ks[j].r.Filed) {
			return ks[i].r.Filed.Before(ks[j].r.Filed)
		}
		return ks[i].key < ks[j].key
	})
	order := make([]*report.Report, len(ks))
	for i, k := range ks {
		order[i] = k.r
	}
	return order
}

// noWord pads the triple of a text shorter than shingleSize words; no word
// has this ID.
const noWord = -1

// interner assigns dense IDs to the words and shingles of one Mark call.
type interner struct {
	wordIDs    map[string]int32
	shingleIDs map[[shingleSize]int32]int32
	words      []int32 // scratch: the current text's word IDs
}

// shingles returns the sorted, deduplicated shingle IDs of the normalized
// text. A text shorter than shingleSize words yields one shingle of the whole
// text, its word IDs padded with noWord, so that even tiny reports can match.
func (in *interner) shingles(text string) []int32 {
	if in.wordIDs == nil {
		in.wordIDs = make(map[string]int32)
		in.shingleIDs = make(map[[shingleSize]int32]int32)
	}
	in.words = in.words[:0]
	forEachWord(text, func(w string) {
		id, ok := in.wordIDs[w]
		if !ok {
			id = int32(len(in.wordIDs))
			in.wordIDs[w] = id
		}
		in.words = append(in.words, id)
	})
	words := in.words
	if len(words) == 0 {
		return nil
	}
	if len(words) < shingleSize {
		tri := [shingleSize]int32{noWord, noWord, noWord}
		copy(tri[:], words)
		return []int32{in.shingleID(tri)}
	}
	set := make([]int32, 0, len(words)-shingleSize+1)
	for i := 0; i+shingleSize <= len(words); i++ {
		set = append(set, in.shingleID([shingleSize]int32(words[i:i+shingleSize])))
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// shingleID returns the ID of the word triple, assigning the next one on
// first sight.
func (in *interner) shingleID(tri [shingleSize]int32) int32 {
	id, ok := in.shingleIDs[tri]
	if !ok {
		id = int32(len(in.shingleIDs))
		in.shingleIDs[tri] = id
	}
	return id
}

// jaccard is the Jaccard similarity of two sorted, deduplicated ID sets.
func jaccard(a, b []int32) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// normalizeSynopsis lowercases a synopsis and collapses its whitespace.
func normalizeSynopsis(s string) string {
	var b strings.Builder
	forEachWord(s, func(w string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w)
	})
	return b.String()
}

// synopsisContains reports whether the later report's synopsis contains the
// canonical's (or vice versa). Very short synopses are excluded: containment
// of a three-word title is not evidence.
func synopsisContains(later, canonical string) bool {
	const minWords = 4
	if strings.Count(canonical, " ") < minWords-1 || strings.Count(later, " ") < minWords-1 {
		return false
	}
	return strings.Contains(later, canonical) || strings.Contains(canonical, later)
}

// forEachWord lowercases text and calls fn on each of its words: the maximal
// runs of ASCII letters and digits. Every byte of a multi-byte UTF-8
// sequence is at least 0x80, so scanning bytes splits exactly where scanning
// runes would.
func forEachWord(text string, fn func(word string)) {
	text = strings.ToLower(text)
	start := -1
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(text[start:i])
			start = -1
		}
	}
	if start >= 0 {
		fn(text[start:])
	}
}
