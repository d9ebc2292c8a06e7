package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span names the benchmark records around the public calls it makes.
const (
	spanIteration  = "iteration"      // the root of one timed iteration
	spanRun        = "experiment.run" // experiment.Run<X> or faultstudy.RunStudy
	spanSites      = "bugsite.sites"  // generating the three tracker sites
	spanCheck      = "report.check"   // the report's Check gate
	spanRender     = "report.string"  // rendering the report
	spanWriteTrace = "obsv.write_trace"
	spanWriteProm  = "obsv.write_prometheus"
)

// Span is one timed interval of a traced run. Times are microseconds since
// the recorder started.
type Span struct {
	// ID identifies the span; IDs start at 1.
	ID int `json:"id"`
	// Parent is the enclosing span's ID, 0 for a root.
	Parent int `json:"parent"`
	// Iter is the timed iteration the span belongs to.
	Iter int `json:"iter"`
	// Name is what the span covers: one of the span names above, with the
	// called function in Call.
	Name string `json:"name"`
	// Call is the public function called, e.g. "experiment.RunCorpus".
	Call string `json:"call,omitempty"`
	// StartUS is when the span opened.
	StartUS int64 `json:"start_us"`
	// EndUS is when the span closed.
	EndUS int64 `json:"end_us"`
	// SelfUS is the span's duration minus the part its children cover,
	// filled in by SelfTimes.
	SelfUS int64 `json:"self_us"`
}

// Spans records spans in memory for one traced run. A nil *Spans records
// nothing, so untraced runs pay only a nil check. It is not safe for
// concurrent use: iterations call the program one call at a time.
type Spans struct {
	epoch time.Time
	list  []Span
	iter  int
}

// NewSpans starts an empty recorder whose clock starts now.
func NewSpans() *Spans {
	return &Spans{epoch: now()}
}

// since is microseconds elapsed on the recorder's clock.
func (s *Spans) since() int64 {
	return now().Sub(s.epoch).Microseconds()
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (s *Spans) begin(name, call string, parent int) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, Span{ID: len(s.list) + 1, Parent: parent, Iter: s.iter, Name: name, Call: call, StartUS: s.since()})
	return len(s.list)
}

// end closes span id.
func (s *Spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].EndUS = s.since()
}

// List returns the recorded spans with their self times filled in.
func (s *Spans) List() []Span {
	if s == nil {
		return nil
	}
	SelfTimes(s.list)
	return s.list
}

// SelfTimes sets each span's SelfUS: its duration minus the union of the
// intervals its direct children cover, clipped to the span.
func SelfTimes(spans []Span) {
	children := map[int][]Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for i := range spans {
		sp := &spans[i]
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUS < kids[b].StartUS })
		covered, cursor := int64(0), sp.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, cursor), min(k.EndUS, sp.EndUS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		sp.SelfUS = sp.EndUS - sp.StartUS - covered
	}
}

// WriteSpansJSONL writes spans one JSON object per line.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("bench: write span %d: %w", sp.ID, err)
		}
	}
	return nil
}
