// Package faultlint is a stdlib-only static-analysis suite that finds
// environment-dependence sites in Go source and predicts the fault class —
// environment-independent (EI), environment-dependent-nontransient (EDN), or
// environment-dependent-transient (EDT) — that a fault at each site would
// carry under Chandra & Chen's taxonomy (DSN 2000, §3).
//
// The paper classified every fault by hand; faultlint mechanizes the same
// judgment at the source level, in the spirit of Palix et al.'s
// pattern-mined Linux fault taxonomy. Each analyzer encodes one
// classification rule:
//
//   - envsite: classifies seeded fault-raise sites (faultinject.Fail /
//     FailCause) by the environmental facility consulted nearby.
//   - envcheck: discarded errors from environment-dependent acquire
//     operations — a latent EDN fault waiting for the environment to defect.
//   - retryloop: blind retry of environment-dependent operations with no
//     backoff — the paper's "unlikely to succeed on retry" EDN trap.
//   - wallclock: direct wall-clock reads outside the injectable-clock
//     packages — timing nondeterminism (EDT).
//   - rawrand: global math/rand draws — nondeterminism that breaks
//     reproducible experiments (EDT).
//   - swallowfail: a faultinject.FailureError caught and dropped without
//     reclassification — the failure's class is lost (latent EDN).
//   - sharedmut: package-level mutable state written near goroutine spawns
//     without synchronization — a lightweight race heuristic (EDT).
//
// The suite is built only on go/parser, go/ast, and go/types; imports are
// resolved with a stub importer so no compiled export data, module
// downloads, or go-command invocations are needed. Type information is
// therefore best-effort: analyzers consult it where available (constant
// values, package-name resolution) and degrade to syntactic resolution
// otherwise.
//
// Diagnostics may be suppressed with a trailing or preceding comment:
//
//	//faultlint:ignore <rule>[,<rule>...] [reason]
//
// where <rule> may be "all". Suppressed diagnostics are retained in reports
// (marked suppressed) so suppression density is itself observable.
package faultlint

import (
	"fmt"
	"go/token"

	"faultstudy/internal/taxonomy"
)

// Diagnostic is one finding: a source position, the rule that fired, and the
// fault class the rule predicts for a fault at that site.
type Diagnostic struct {
	// Rule is the analyzer name that produced the finding.
	Rule string `json:"rule"`
	// Class is the predicted fault class of the site.
	Class taxonomy.FaultClass `json:"class"`
	// File is the file path as loaded.
	File string `json:"file"`
	// Line and Col are 1-based source coordinates.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message explains the finding.
	Message string `json:"message"`
	// Mechanisms lists the seeded-bug registry keys attributed to the site,
	// when the site raises a seeded fault (envsite only).
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Advisory marks a finding from a classification rule: it is reported
	// and counted but never fails the gate (envsite classifies seeded fault
	// sites — those sites are the corpus, not defects).
	Advisory bool `json:"advisory,omitempty"`
	// Suppressed marks a finding covered by a //faultlint:ignore comment.
	Suppressed bool `json:"suppressed,omitempty"`
	// SuppressReason carries the trailing text of the ignore comment.
	SuppressReason string `json:"suppressReason,omitempty"`
}

// Pos renders the file:line:col prefix.
func (d Diagnostic) Pos() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// Analyzer is one checking rule.
type Analyzer struct {
	// Name is the rule name used in reports and ignore comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Class is the fault class the rule predicts for its findings; envsite
	// overrides it per diagnostic.
	Class taxonomy.FaultClass
	// Advisory marks a classification rule whose findings describe the
	// corpus rather than defects; they never fail the gate.
	Advisory bool
	// Run inspects one package through the pass.
	Run func(*Pass)
}

// Analyzers returns the full suite in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		envsiteAnalyzer,
		envcheckAnalyzer,
		retryloopAnalyzer,
		wallclockAnalyzer,
		rawrandAnalyzer,
		swallowfailAnalyzer,
		sharedmutAnalyzer,
	}
}

// AnalyzerNames returns the rule names in report order.
func AnalyzerNames() []string {
	all := Analyzers()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// LookupAnalyzer finds one analyzer by rule name.
func LookupAnalyzer(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Pass is one analyzer's view of one loaded package.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Fset translates token positions.
	Fset *token.FileSet

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos with the analyzer's default class.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.ReportSite(pos, p.Analyzer.Class, nil, format, args...)
}

// ReportSite records a diagnostic with an explicit class prediction and an
// optional mechanism attribution.
func (p *Pass) ReportSite(pos token.Pos, class taxonomy.FaultClass, mechanisms []string, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:       p.Analyzer.Name,
		Class:      class,
		File:       position.Filename,
		Line:       position.Line,
		Col:        position.Column,
		Message:    fmt.Sprintf(format, args...),
		Mechanisms: mechanisms,
		Advisory:   p.Analyzer.Advisory,
	})
}

// Result is the outcome of running analyzers over a set of packages.
type Result struct {
	// Packages counts the packages analyzed.
	Packages int `json:"packages"`
	// Rules lists the analyzer names that ran.
	Rules []string `json:"rules"`
	// Diagnostics holds every finding, suppressed included, sorted by
	// file/line/col/rule.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Active returns the unsuppressed findings.
func (r *Result) Active() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Gating returns the findings that fail the gate: active and non-advisory.
func (r *Result) Gating() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed && !d.Advisory {
			out = append(out, d)
		}
	}
	return out
}

// ByRule tallies findings (suppressed included) per rule.
func (r *Result) ByRule() map[string]int {
	out := make(map[string]int)
	for _, d := range r.Diagnostics {
		out[d.Rule]++
	}
	return out
}

// Run executes the given analyzers (all, when rules is nil) over the
// packages and returns the merged, suppression-annotated result.
func Run(pkgs []*Package, rules []string) (*Result, error) {
	analyzers := Analyzers()
	if len(rules) > 0 {
		analyzers = analyzers[:0:0]
		for _, name := range rules {
			a, ok := LookupAnalyzer(name)
			if !ok {
				return nil, fmt.Errorf("faultlint: unknown rule %q (have %v)", name, AnalyzerNames())
			}
			analyzers = append(analyzers, a)
		}
	}
	res := &Result{Packages: len(pkgs)}
	for _, a := range analyzers {
		res.Rules = append(res.Rules, a.Name)
	}
	var diags []Diagnostic
	index := newSuppressionIndex()
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Fset: pkg.Fset, diags: &diags}
			a.Run(pass)
		}
		index.collect(pkg)
	}
	index.apply(diags)
	SortDiagnostics(diags)
	res.Diagnostics = diags
	return res, nil
}
