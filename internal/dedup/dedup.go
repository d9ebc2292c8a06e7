// Package dedup narrows raw bug reports to unique bugs — the study's
// reduction of 5220 Apache PRs to 50 unique faults, ~500 GNOME reports to 45,
// and 44k MySQL messages to 44 (paper §4).
//
// Duplicate detection combines text similarity (Jaccard over word shingles,
// with an inverted index so the comparison stays near-linear) with a
// structural prefilter (same application). The earliest-filed report of a
// duplicate group is canonical; later members point at it via
// Report.DuplicateOf.
package dedup

import (
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
// duplicates of each other.
func Mark(reports []*report.Report) int {
	// Earliest-filed first, so canonical reports are seen before their
	// duplicates; ties break by ID for determinism.
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
		shingleSets[i] = Shingles(r.Text(), shingleSize)
		synopses[i] = normalizeSynopsis(r.Synopsis)
	}

	// Inverted index: shingle -> indices of canonical reports containing it.
	index := make(map[string][]int)
	marked := 0

	for i, r := range order {
		r.DuplicateOf = ""
		set := shingleSets[i]
		// Gather candidate canonicals sharing at least one indexed shingle.
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
				sim := jaccard(set, shingleSets[j])
				match := sim >= threshold
				if !match && sim >= minContainmentSim {
					match = synopsisContains(synopses[i], synopses[j])
				}
				if match && sim > bestSim {
					best, bestSim = j, sim
				}
			}
		}
		if best >= 0 {
			r.DuplicateOf = order[best].ID
			marked++
			continue
		}
		// Canonical: index its shingles (subject to the doc-frequency cap).
		for sh := range set {
			if len(index[sh]) < maxDocFreq {
				index[sh] = append(index[sh], i)
			}
		}
	}
	return marked
}

// Shingles returns the set of k-word shingles of the normalized text. Texts
// shorter than k words yield a single shingle of the whole text so that even
// tiny reports can match.
func Shingles(text string, k int) map[string]struct{} {
	words := tokenize(text)
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

func jaccard(a, b map[string]struct{}) float64 {
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

// normalizeSynopsis lowercases a synopsis and collapses its whitespace.
func normalizeSynopsis(s string) string {
	return strings.Join(tokenize(s), " ")
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

// tokenize lowercases and splits text into alphanumeric word runs.
func tokenize(text string) []string {
	text = strings.ToLower(text)
	words := strings.FieldsFunc(text, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	return words
}
