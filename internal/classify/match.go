package classify

import (
	"slices"
	"sort"
	"sync"

	"faultstudy/internal/taxonomy"
)

// maxCues bounds the number of lexicon cues, so a report's hits fit a
// fixed-size bit set.
const maxCues = 128

// cueSet is a set of cue indices.
type cueSet [maxCues / 64]uint64

func (s *cueSet) add(k int)     { s[k/64] |= 1 << (k % 64) }
func (s cueSet) has(k int) bool { return s[k/64]&(1<<(k%64)) != 0 }

// cueGroup is the contiguous run of cue indices one lexicon list compiles
// to, with the trigger kind it is evidence for (TriggerWorkloadOnly for
// deterministicLexicon).
type cueGroup struct {
	kind    taxonomy.TriggerKind
	first   int
	phrases []phrase
}

// automaton is an Aho–Corasick automaton over every lexicon cue, with its
// transitions completed into a DFA over a reduced byte alphabet: the bytes
// that occur in some cue get symbols 1..n, and every other byte is symbol 0,
// which leads back to the root from every state.
type automaton struct {
	symbol [256]uint8
	stride int      // alphabet size: symbols per state row
	next   []uint16 // next[state*stride+symbol] is the successor state
	// The cues ending at state s (its own and its suffixes') are
	// ends[endsAt[s]:endsAt[s+1]].
	endsAt []int32
	ends   []uint8
	// lens holds each cue's length in bytes.
	lens []int

	// deterministic is deterministicLexicon's group; triggers holds one
	// group per trigger kind, in kind order.
	deterministic cueGroup
	triggers      []cueGroup
}

// cues returns the classifier's one compiled lexicon, built on first use
// so that a program that never classifies does not pay for it at start-up.
var cues = sync.OnceValue(compileLexicons)

// compileLexicons numbers deterministicLexicon's cues first and then each
// triggerLexicon list's, in kind order, and compiles them all.
func compileLexicons() *automaton {
	var texts []string
	group := func(kind taxonomy.TriggerKind, ps []phrase) cueGroup {
		g := cueGroup{kind: kind, first: len(texts), phrases: ps}
		for _, p := range ps {
			texts = append(texts, p.text)
		}
		return g
	}
	det := group(taxonomy.TriggerWorkloadOnly, deterministicLexicon)
	kinds := make([]taxonomy.TriggerKind, 0, len(triggerLexicon))
	for kind := range triggerLexicon {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	var triggers []cueGroup
	for _, kind := range kinds {
		triggers = append(triggers, group(kind, triggerLexicon[kind]))
	}
	a := compile(texts)
	a.deterministic, a.triggers = det, triggers
	return a
}

// compile builds the automaton of the given cues; cue k is texts[k]. It
// panics on an empty cue or on more than maxCues cues, both lexicon bugs.
func compile(texts []string) *automaton {
	if len(texts) > maxCues {
		panic("classify: more lexicon cues than maxCues")
	}
	a := &automaton{stride: 1, lens: make([]int, len(texts))}
	for k, t := range texts {
		if t == "" {
			panic("classify: empty lexicon cue")
		}
		a.lens[k] = len(t)
		for i := 0; i < len(t); i++ {
			if a.symbol[t[i]] == 0 {
				a.symbol[t[i]] = uint8(a.stride)
				a.stride++
			}
		}
	}

	// The trie: goTo[s*stride+c] is the child of state s on symbol c, 0 for
	// none (the root is no state's child); ends[s] lists the cues ending at
	// s.
	goTo := make([]int32, a.stride)
	ends := [][]uint8{nil}
	for k, t := range texts {
		s := 0
		for i := 0; i < len(t); i++ {
			edge := s*a.stride + int(a.symbol[t[i]])
			if goTo[edge] == 0 {
				goTo[edge] = int32(len(ends))
				goTo = append(goTo, make([]int32, a.stride)...)
				ends = append(ends, nil)
			}
			s = int(goTo[edge])
		}
		ends[s] = append(ends[s], uint8(k))
	}
	if len(ends) > 1<<16 {
		panic("classify: lexicon automaton exceeds 65536 states")
	}

	// Breadth first, each state's failure link is a shallower state, whose
	// row is already complete: a missing transition takes the failure
	// link's, and a state also ends every cue its failure link ends.
	fail := make([]int32, len(ends))
	var queue []int32
	for _, s := range goTo[:a.stride] {
		if s != 0 {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := int(queue[0])
		queue = queue[1:]
		ends[s] = append(ends[s], ends[fail[s]]...)
		row, failRow := goTo[s*a.stride:(s+1)*a.stride], goTo[int(fail[s])*a.stride:]
		for c, t := range row {
			if t == 0 {
				row[c] = failRow[c]
				continue
			}
			fail[t] = failRow[c]
			queue = append(queue, t)
		}
	}

	a.next = make([]uint16, len(goTo))
	for i, t := range goTo {
		a.next[i] = uint16(t)
	}
	a.endsAt = make([]int32, 0, len(ends)+1)
	for _, e := range ends {
		a.endsAt = append(a.endsAt, int32(len(a.ends)))
		a.ends = append(a.ends, e...)
	}
	a.endsAt = append(a.endsAt, int32(len(a.ends)))
	return a
}

// match returns the cues that occur in text other than right after a
// negation, in one pass over text. After a negated occurrence of a cue, an
// occurrence starting inside it does not count either: "not every timevery
// time" has no unnegated "every time", as a search that resumes past each
// negated occurrence finds.
func (a *automaton) match(text string) cueSet {
	var hits cueSet
	// resume[k] is where the search for cue k resumes: an occurrence
	// starting before it does not count.
	var resume [maxCues]int
	s := 0
	for i := 0; i < len(text); i++ {
		s = int(a.next[s*a.stride+int(a.symbol[text[i]])])
		for _, k := range a.ends[a.endsAt[s]:a.endsAt[s+1]] {
			start := i + 1 - a.lens[k]
			switch {
			case hits.has(int(k)) || start < resume[k]:
			case negatedAt(text, start):
				resume[k] = i + 1
			default:
				hits.add(int(k))
			}
		}
	}
	return hits
}

// evidence returns the texts of the group's cues in hits, sorted.
func (g cueGroup) evidence(hits cueSet) []string {
	n := 0
	for k := range g.phrases {
		if hits.has(g.first + k) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for k, p := range g.phrases {
		if hits.has(g.first + k) {
			out = append(out, p.text)
		}
	}
	sort.Strings(out)
	return out
}
