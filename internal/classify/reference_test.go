package classify

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"faultstudy/internal/corpus"
	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// refClassify is the per-cue scorer Classify replaced, kept as the
// reference of FuzzClassify: it rescans the lowercased text once per cue.
func refClassify(opts Options, r *report.Report) Result {
	opts = opts.withDefaults()
	text := strings.ToLower(r.Text())

	eiScore := eiPrior
	var eiEvidence []string
	for _, p := range deterministicLexicon {
		if matchPhrase(text, p.text) {
			eiScore += p.weight
			eiEvidence = append(eiEvidence, p.text)
		}
	}

	type hypothesis struct {
		kind     taxonomy.TriggerKind
		score    float64
		evidence []string
	}
	var hyps []hypothesis
	for kind, phrases := range triggerLexicon {
		h := hypothesis{kind: kind}
		for _, p := range phrases {
			if matchPhrase(text, p.text) {
				h.score += p.weight * opts.TriggerWeightScale
				h.evidence = append(h.evidence, p.text)
			}
		}
		if h.score > 0 {
			hyps = append(hyps, h)
		}
	}
	sort.Slice(hyps, func(i, j int) bool {
		if hyps[i].score != hyps[j].score {
			return hyps[i].score > hyps[j].score
		}
		return hyps[i].kind < hyps[j].kind
	})

	best := hypothesis{kind: taxonomy.TriggerWorkloadOnly, score: eiScore, evidence: eiEvidence}
	runnerUp := 0.0
	if len(hyps) > 0 {
		top := hyps[0]
		if top.score > eiScore {
			best = top
			runnerUp = eiScore
			if len(hyps) > 1 && hyps[1].score > runnerUp {
				runnerUp = hyps[1].score
			}
		} else {
			runnerUp = top.score
		}
	}

	conf := 1.0
	if best.score+runnerUp > 0 {
		conf = best.score / (best.score + runnerUp)
	}
	class := best.kind.DefaultClass()
	if best.kind == taxonomy.TriggerWorkloadOnly {
		class = taxonomy.ClassEnvIndependent
	}
	sort.Strings(best.evidence)
	return Result{Class: class, Trigger: best.kind, Confidence: conf, Evidence: best.evidence}
}

// matchPhrase reports whether the cue occurs in the text other than right
// after "not ", "never " or "no ". After a negated occurrence it resumes the
// search past that occurrence's end.
func matchPhrase(text, cue string) bool {
	idx := 0
	for {
		i := strings.Index(text[idx:], cue)
		if i < 0 {
			return false
		}
		abs := idx + i
		if !negatedAt(text, abs) {
			return true
		}
		idx = abs + len(cue)
	}
}

// TestNegationHidesOverlappingOccurrence: "every time" overlaps itself by
// its "e", so a second occurrence can start inside a negated first one.
// That second occurrence does not count, in the automaton as in
// matchPhrase; a separate one does.
func TestNegationHidesOverlappingOccurrence(t *testing.T) {
	everyTime := -1
	for k, p := range deterministicLexicon {
		if p.text == "every time" {
			everyTime = k
		}
	}
	for _, tc := range []struct {
		text string
		want bool
	}{
		{"not every timevery time", false},
		{"not every time, every time", true},
		{"every timevery time", true},
	} {
		if got := cues().match(tc.text).has(everyTime); got != tc.want || matchPhrase(tc.text, "every time") != tc.want {
			t.Errorf("%q: cue \"every time\" hit %v, matchPhrase %v, want %v",
				tc.text, got, matchPhrase(tc.text, "every time"), tc.want)
		}
	}
}

// equalResults reports whether two results agree exactly: the same class,
// trigger and evidence, and bit-equal confidence.
func equalResults(a, b Result) bool {
	return a.Class == b.Class && a.Trigger == b.Trigger &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		slices.Equal(a.Evidence, b.Evidence) && (a.Evidence == nil) == (b.Evidence == nil)
}

// fuzzFragments are FuzzClassify's text pieces: cues and cue prefixes,
// negations, overlapping cues, upper case and non-ASCII bytes.
var fuzzFragments = []string{
	"every time", "every tim", "very time", "every single time", "each time", "always", "deterministic",
	"file descriptor", "file descriptors", "out of descriptors", "race condition",
	"not ", "never ", "no ", "NOT ", "Never ", "no", "t ",
	"disk full", "DISK FULL", "full file system", "no space left", "entropy",
	"dns server", "reverse dns", "slow dns", "hostname", "ptr record",
	"intermittent", "not reproducible", "not reliably reproducible", "works on retry",
	"/dev/random", "100% reproducible", "pcmcia", "mid-download", "user's typing speed",
	"size limit, then", "process table", "presses stop", "slow network", "leaks a",
	" ", ".", "\n", "İ", "\u212A", "é", "\xff", "every", "time", "file ", "descriptor",
}

// FuzzClassify checks Classify against refClassify, bit for bit, at three
// trigger weight scales, on texts stitched from cue fragments (each byte of
// frags picks one) followed by raw bytes.
func FuzzClassify(f *testing.F) {
	f.Add([]byte{9, 3, 0}, "")
	f.Add([]byte{5, 6, 9, 5, 12, 7}, "tail")
	f.Add([]byte{1, 30, 11, 29, 17, 18}, "\x00\xc3(")
	for _, fl := range corpus.All()[:3] {
		f.Add([]byte{}, fl.Report().Text())
	}
	f.Fuzz(func(t *testing.T, frags []byte, raw string) {
		var b strings.Builder
		for _, k := range frags {
			b.WriteString(fuzzFragments[int(k)%len(fuzzFragments)])
		}
		b.WriteString(raw)
		r := &report.Report{ID: "fuzz", App: taxonomy.AppApache, Description: b.String()}
		for _, scale := range []float64{0, 0.5, 2} {
			opts := Options{TriggerWeightScale: scale}
			got, want := New(opts).Classify(r), refClassify(opts, r)
			if !equalResults(got, want) {
				t.Fatalf("scale %v, text %q:\n got %+v\nwant %+v", scale, r.Description, got, want)
			}
		}
	})
}

// TestClassifyMatchesReferenceOnCorpus runs the differential over the 139
// corpus reports.
func TestClassifyMatchesReferenceOnCorpus(t *testing.T) {
	for _, scale := range []float64{0, 0.5, 2} {
		opts := Options{TriggerWeightScale: scale}
		c := New(opts)
		for _, fl := range corpus.All() {
			r := fl.Report()
			if got, want := c.Classify(r), refClassify(opts, r); !equalResults(got, want) {
				t.Errorf("%s at scale %v:\n got %+v\nwant %+v", fl.ID, scale, got, want)
			}
		}
	}
}
