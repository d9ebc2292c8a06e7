// Package classify reproduces the study's fault classification (paper §3–5):
// given a bug report, decide whether the fault is environment-independent,
// environment-dependent-nontransient, or environment-dependent-transient, and
// name the environmental trigger.
//
// The study's classification was a human judgment over the "How To Repeat"
// field, developer comments, and fix descriptions. This package encodes that
// judgment as a reproducible rule classifier: weighted cue lexicons per
// trigger kind, scored as lowercase substring matches over the report text,
// with a deterministic-workload prior. The mapping from the winning trigger
// to a class is the taxonomy's (persistent conditions → nontransient,
// self-healing conditions → transient).
package classify

import (
	"sort"
	"strings"

	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// Options tunes the classifier; the zero value is the study configuration.
// The knob exists for the §5.4 subjectivity ablation.
type Options struct {
	// TriggerWeightScale multiplies every trigger cue weight; 0 means 1.0.
	// Values below 1 bias the classifier toward environment-independent.
	TriggerWeightScale float64
}

// eiPrior is the baseline score of the environment-independent hypothesis
// before any deterministic cue is seen: a trigger must outscore it for the
// fault to be called environment-dependent.
const eiPrior = 1.0

func (o Options) withDefaults() Options {
	if o.TriggerWeightScale == 0 {
		o.TriggerWeightScale = 1.0
	}
	return o
}

// Result is one classification decision.
type Result struct {
	// Class is the decided fault class.
	Class taxonomy.FaultClass
	// Trigger is the winning environmental trigger (TriggerWorkloadOnly for
	// environment-independent decisions).
	Trigger taxonomy.TriggerKind
	// Confidence is the winning score divided by the sum of the winning and
	// runner-up hypotheses' scores, in (0.5, 1].
	Confidence float64
	// Evidence lists the matched cue phrases for the winning hypothesis.
	Evidence []string
}

// Classifier classifies normalized bug reports.
type Classifier struct {
	opts Options
}

// New builds a classifier.
func New(opts Options) *Classifier {
	return &Classifier{opts: opts.withDefaults()}
}

// Classify decides the fault class of one report.
func (c *Classifier) Classify(r *report.Report) Result {
	text := strings.ToLower(r.Text())

	// Score the environment-independent hypothesis.
	eiScore := eiPrior
	var eiEvidence []string
	for _, p := range deterministicLexicon {
		if matchPhrase(text, p.text) {
			eiScore += p.weight
			eiEvidence = append(eiEvidence, p.text)
		}
	}

	// Score each trigger hypothesis.
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
				h.score += p.weight * c.opts.TriggerWeightScale
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
		return hyps[i].kind < hyps[j].kind // deterministic tie-break
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
	return Result{
		Class:      class,
		Trigger:    best.kind,
		Confidence: conf,
		Evidence:   best.evidence,
	}
}

// matchPhrase reports whether the cue occurs in the text, honoring a simple
// negation guard: a cue immediately preceded by "not " or "never " does not
// count (e.g. "not reproducible" must not fire the "reproducible" cue — the
// negated form is its own cue where it matters).
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

func negatedAt(text string, pos int) bool {
	for _, neg := range []string{"not ", "never ", "no "} {
		if pos >= len(neg) && text[pos-len(neg):pos] == neg {
			return true
		}
	}
	return false
}
