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
//
// Both lexicons are compiled, on first use, into one Aho–Corasick
// automaton, so each report is matched in a single pass over its lowercased
// text. A cue counts when one of its occurrences is not immediately preceded
// by "not ", "never " or "no " (e.g. "not reproducible" must not fire a
// "reproducible" cue; the negated form is its own cue where it matters), nor
// starts inside a negated occurrence of the same cue. Weights are summed in
// lexicon order, so scores do not depend on the order in which the pass
// finds the cues.
package classify

import (
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
	lex := cues()
	hits := lex.match(text)

	// Score the environment-independent hypothesis.
	eiScore := eiPrior
	for k, p := range lex.deterministic.phrases {
		if hits.has(lex.deterministic.first + k) {
			eiScore += p.weight
		}
	}

	// Score each trigger hypothesis, keeping the two highest-scoring ones
	// (higher score first, then lower kind for determinism).
	type hypothesis struct {
		score float64
		group cueGroup
	}
	var top [2]hypothesis
	nhyps := 0
	for _, g := range lex.triggers {
		h := hypothesis{group: g}
		for k, p := range g.phrases {
			if hits.has(g.first + k) {
				h.score += p.weight * c.opts.TriggerWeightScale
			}
		}
		if h.score <= 0 {
			continue
		}
		nhyps++
		switch {
		case nhyps == 1 || outranks(h.score, g.kind, top[0].score, top[0].group.kind):
			top[1], top[0] = top[0], h
		case nhyps == 2 || outranks(h.score, g.kind, top[1].score, top[1].group.kind):
			top[1] = h
		}
	}

	best := hypothesis{score: eiScore, group: lex.deterministic}
	runnerUp := 0.0
	if nhyps > 0 {
		if top[0].score > eiScore {
			best = top[0]
			runnerUp = eiScore
			if nhyps > 1 && top[1].score > runnerUp {
				runnerUp = top[1].score
			}
		} else {
			runnerUp = top[0].score
		}
	}

	conf := 1.0
	if best.score+runnerUp > 0 {
		conf = best.score / (best.score + runnerUp)
	}
	class := best.group.kind.DefaultClass()
	if best.group.kind == taxonomy.TriggerWorkloadOnly {
		class = taxonomy.ClassEnvIndependent
	}
	return Result{
		Class:      class,
		Trigger:    best.group.kind,
		Confidence: conf,
		Evidence:   best.group.evidence(hits),
	}
}

// outranks reports whether a hypothesis scoring a with kind ka ranks above
// one scoring b with kind kb: the higher score wins, and the lower kind
// breaks a tie.
func outranks(a float64, ka taxonomy.TriggerKind, b float64, kb taxonomy.TriggerKind) bool {
	if a != b {
		return a > b
	}
	return ka < kb
}

// negatedAt reports whether the text at pos is immediately preceded by
// "not ", "never " or "no ".
func negatedAt(text string, pos int) bool {
	for _, neg := range []string{"not ", "never ", "no "} {
		if pos >= len(neg) && text[pos-len(neg):pos] == neg {
			return true
		}
	}
	return false
}
