package recoveryscope

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"faultstudy/internal/faultlint"
	"faultstudy/internal/recovery"
	"faultstudy/internal/taxonomy"
)

// livenessFields are process-liveness flags, not corruptable state: every
// seeded crash writes running=false as the crash itself, and ContainCrash /
// component restart clears it by construction. They are excluded from taint
// so a crash's liveness flip does not masquerade as state corruption.
var livenessFields = map[string]bool{
	"running":  true,
	"degraded": true,
}

// Prediction is the static verdict for one seeded fault-raise site.
type Prediction struct {
	// File locates the raise.
	File string `json:"file"`
	// Line is the raise's 1-based line within File.
	Line int `json:"line"`
	// Col is the raise's 1-based column.
	Col int `json:"col"`
	// Pkg is the declaring package directory.
	Pkg string `json:"pkg"`
	// Func is the enclosing function (pkg.(Recv).Name form).
	Func string `json:"func"`
	// Mechanisms are the registry keys the site speaks for.
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Symptom is the declared failure symptom.
	Symptom string `json:"symptom"`
	// Class is the predicted environment-dependence class.
	Class taxonomy.FaultClass `json:"class"`
	// Trigger is the decisive trigger kind (TriggerWorkloadOnly for EI,
	// TriggerUnknownKind for the FailCause prior).
	Trigger taxonomy.TriggerKind `json:"trigger"`
	// Interprocedural marks a class decided through a callee's transitive
	// environment summary rather than a directly visible env call.
	Interprocedural bool `json:"interprocedural,omitempty"`
	// Via names the environment-reaching callee the class came through.
	Via string `json:"via,omitempty"`
	// Component is the owning component (the microreboot/subtree target),
	// "" when unattributable.
	Component string `json:"component,omitempty"`
	// BlastRadius is the sorted set of components the fault's path taint
	// reaches (owner included).
	BlastRadius []string `json:"blastRadius,omitempty"`
	// PathFields is the corruption the fault path performs before the raise
	// (guard-region writes, liveness flags excluded).
	PathFields []string `json:"pathFields,omitempty"`
	// PathGlobals are package-global writes on the fault path.
	PathGlobals []string `json:"pathGlobals,omitempty"`
	// PathBuckets are externalized-store bucket writes on the fault path.
	PathBuckets []string `json:"pathBuckets,omitempty"`
	// Releasable lists the enclosing function's tainted fields some OnKill
	// hook releases — the state a crash-stop can free (exhaustion cures).
	Releasable []string `json:"releasable,omitempty"`
	// Rung is the predicted minimal recovery rung.
	Rung recovery.Rung `json:"-"`
}

// Analysis is the whole-program result: the graph, the component maps, and
// one prediction per seeded fault-raise site, in file/line order.
type Analysis struct {
	// Graph is the call graph the predictions were computed over.
	Graph *Graph
	// Maps holds the component decomposition of each componentized package,
	// keyed by package directory.
	Maps map[string]*ComponentMap
	// Sites are the per-raise-site predictions.
	Sites []Prediction
}

// Analyze runs the full interprocedural analysis over loaded packages.
func Analyze(pkgs []*faultlint.Package) *Analysis {
	g := BuildGraph(pkgs)
	a := &Analysis{Graph: g, Maps: BuildComponentMaps(g)}
	for _, p := range pkgs {
		pkg := p
		for _, f := range pkg.Files {
			file := f
			faultlint.WalkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				site, ok := pkg.AsFailSite(file, call, stack)
				if !ok {
					return true
				}
				a.Sites = append(a.Sites, a.predict(pkg, file, site, stack))
				return true
			})
		}
	}
	sort.Slice(a.Sites, func(i, j int) bool {
		x, y := a.Sites[i], a.Sites[j]
		if x.File != y.File {
			return x.File < y.File
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		return x.Col < y.Col
	})
	return a
}

// predict computes the {class, component, blast radius, rung} verdict for
// one fail site.
func (a *Analysis) predict(p *faultlint.Package, f *ast.File, site faultlint.FailSite, stack []ast.Node) Prediction {
	pos := p.Fset.Position(site.Call.Pos())
	pred := Prediction{
		File:       pos.Filename,
		Line:       pos.Line,
		Col:        pos.Column,
		Pkg:        p.Dir,
		Mechanisms: site.Mechanisms,
		Symptom:    site.Symptom.String(),
	}
	if len(pred.Mechanisms) == 0 {
		pred.Mechanisms = a.inferDefaultCaseMechanisms(p, f, site, stack)
	}
	if node := a.enclosingNode(p, stack); node != nil {
		pred.Func = node.Key.String()
	}

	a.classify(p, f, site, stack, &pred)

	path, releasable := a.taint(p, f, site.Call.Pos(), stack)
	pred.PathFields = baseNames(path.SortedFields())
	pred.PathGlobals = path.SortedGlobals()
	pred.PathBuckets = path.SortedBuckets()
	pred.Releasable = baseNames(releasable)

	cm := a.Maps[p.Dir]
	pred.Component = a.owningComponent(cm, pred.Mechanisms)
	pred.Rung = a.rungFor(cm, &pred, path, releasable, site.Symptom)
	return pred
}

// inferDefaultCaseMechanisms attributes a raise in the `default:` arm of a
// key switch — the template-bug shape the intraprocedural rule cannot name:
//
//	if key := validKey(x); key != "" { switch key { case MechA: ...;
//	default: return faultinject.Fail(key, ...) } }
//
// The key's domain is whatever the validating helper (a guard-region call)
// enumerates in its own case clauses; the default arm covers that domain
// minus the keys the switch's named arms already claimed.
func (a *Analysis) inferDefaultCaseMechanisms(p *faultlint.Package, f *ast.File, site faultlint.FailSite, stack []ast.Node) []string {
	var sw *ast.SwitchStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		case *ast.CaseClause:
			if len(n.List) > 0 {
				return nil // a named arm: the intraprocedural rule owns it
			}
			for j := i - 1; j >= 0 && sw == nil; j-- {
				s, ok := stack[j].(*ast.SwitchStmt)
				if !ok {
					continue
				}
				sw = s
			}
		}
		if sw != nil {
			break
		}
	}
	if sw == nil {
		return nil
	}
	named := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if v, ok := p.ConstString(e); ok && strings.Contains(v, "/") {
				named[v] = true
			}
		}
	}
	domain := make(map[string]bool)
	for _, gc := range faultlint.GuardCalls(site.Call.Pos(), stack) {
		for _, callee := range a.Graph.ResolveCall(p, f, gc) {
			ast.Inspect(callee.Decl.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					if v, ok := callee.Pkg.ConstString(e); ok && strings.Contains(v, "/") {
						domain[v] = true
					}
				}
				return true
			})
		}
	}
	var out []string
	for _, v := range sortedKeys(domain) {
		if !named[v] {
			out = append(out, v)
		}
	}
	return out
}

// classify decides the environment-dependence class: the envsite judgment
// first (a directly visible env call in the guard regions), then the
// interprocedural extension (a guard-region call into a function whose
// transitive summary reaches the environment), then the FailCause prior,
// then EI.
func (a *Analysis) classify(p *faultlint.Package, f *ast.File, site faultlint.FailSite, stack []ast.Node, pred *Prediction) {
	if op, ok := faultlint.NearestEnvOp(site.Call.Pos(), stack); ok {
		pred.Trigger = op.Trigger
		pred.Class = op.Trigger.DefaultClass()
		return
	}
	var best *FuncNode
	var bestPos token.Pos = -1
	for _, gc := range faultlint.GuardCalls(site.Call.Pos(), stack) {
		for _, callee := range a.Graph.ResolveCall(p, f, gc) {
			if len(callee.Triggers) > 0 && gc.Pos() > bestPos {
				best, bestPos = callee, gc.Pos()
			}
		}
	}
	if best != nil {
		pred.Class, pred.Trigger = classOfTriggers(best.Triggers)
		pred.Interprocedural = true
		pred.Via = best.Key.String()
		return
	}
	if site.WithCause {
		// FailCause wraps an environment error by contract; with no visible
		// facility the persistent-condition prior applies.
		pred.Class = taxonomy.ClassEnvDependentNonTransient
		pred.Trigger = taxonomy.TriggerUnknownKind
		return
	}
	pred.Class = taxonomy.ClassEnvIndependent
	pred.Trigger = taxonomy.TriggerWorkloadOnly
}

// classOfTriggers joins a transitive trigger set into one class: transient
// wins only on a strict majority (a function touching both disk and DNS is
// pinned by the persistent condition), mirroring the LINT vote collapse.
// The decisive trigger is the smallest-numbered one of the winning class.
func classOfTriggers(triggers map[taxonomy.TriggerKind]bool) (taxonomy.FaultClass, taxonomy.TriggerKind) {
	kinds := make([]taxonomy.TriggerKind, 0, len(triggers))
	for t := range triggers {
		kinds = append(kinds, t)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	edt, edn := 0, 0
	for _, t := range kinds {
		switch t.DefaultClass() {
		case taxonomy.ClassEnvDependentTransient:
			edt++
		case taxonomy.ClassEnvDependentNonTransient:
			edn++
		}
	}
	class := taxonomy.ClassEnvDependentNonTransient
	if edt > edn {
		class = taxonomy.ClassEnvDependentTransient
	}
	for _, t := range kinds {
		if t.DefaultClass() == class {
			return class, t
		}
	}
	// Triggers that default to neither environment class (workload-only
	// summaries never reach here because len(triggers)>0 implies env kinds).
	return taxonomy.ClassEnvIndependent, taxonomy.TriggerWorkloadOnly
}

// enclosingNode finds the graph node of the site's enclosing function
// declaration (function literals attribute to the declaring function).
func (a *Analysis) enclosingNode(p *faultlint.Package, stack []ast.Node) *FuncNode {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return a.Graph.Funcs[FuncKey{Pkg: p.Dir, Recv: recvTypeName(fd), Name: fd.Name.Name}]
		}
	}
	return nil
}

// taint computes the site's two write sets: the path taint (writes inside
// the guard regions, plus the transitive reach of functions called there —
// the corruption performed before detection) and the releasable fields (the
// enclosing function's transitive field writes that some OnKill hook also
// writes — state a crash-stop frees). Liveness flags are excluded from both.
func (a *Analysis) taint(p *faultlint.Package, f *ast.File, site token.Pos, stack []ast.Node) (*WriteSet, []string) {
	path := NewWriteSet()
	globals := a.Graph.globalsByPkg[p.Dir]
	for _, n := range faultlint.GuardNodes(site, stack) {
		collectWrites(p, n, globals, path)
	}
	for _, gc := range faultlint.GuardCalls(site, stack) {
		for _, callee := range a.Graph.ResolveCall(p, f, gc) {
			path.Merge(callee.Reach)
		}
	}
	for key := range path.Fields {
		if livenessFields[fieldBase(key)] {
			delete(path.Fields, key)
		}
	}

	var releasable []string
	if cm := a.Maps[p.Dir]; cm != nil {
		released := cm.KillReleasedFields()
		if node := a.enclosingNode(p, stack); node != nil {
			for _, field := range node.Reach.SortedFields() {
				if released[field] && !livenessFields[fieldBase(field)] {
					releasable = append(releasable, field)
				}
			}
		}
	}
	return path, releasable
}

// owningComponent resolves the component a site's mechanisms attribute to:
// the first mechanism (in site order) with a map entry.
func (a *Analysis) owningComponent(cm *ComponentMap, mechanisms []string) string {
	if cm == nil {
		return ""
	}
	for _, m := range mechanisms {
		if comp, ok := cm.MechanismComponent[m]; ok {
			return comp
		}
	}
	return ""
}

// rungFor decides the minimal recovery rung from the class/symptom/taint
// triple — the paper's table-8 reasoning made mechanical:
//
//   - EDT, still serving: a perturbed retry heals a transient environment.
//   - EI or a crash-like symptom: the component's volatile state (heap,
//     liveness) is what's corrupt; the cheapest reboot containing the path
//     taint cures it.
//   - EDN with kill-releasable resources (a self-inflicted exhaustion some
//     OnKill hook frees): that component's reboot IS the cure.
//   - EDN otherwise: the environment persists across every generic
//     mechanism; restart is the ceiling (and the honest prediction).
func (a *Analysis) rungFor(cm *ComponentMap, pred *Prediction, path *WriteSet, releasable []string, symptom taxonomy.Symptom) recovery.Rung {
	crashLike := symptom == taxonomy.SymptomCrash || symptom == taxonomy.SymptomHang
	switch pred.Class {
	case taxonomy.ClassEnvDependentTransient:
		if !crashLike {
			return recovery.RungRetry
		}
		return a.containment(cm, pred, path, releasable)
	case taxonomy.ClassEnvIndependent:
		if !crashLike && path.Empty() {
			return recovery.RungRetry
		}
		return a.containment(cm, pred, path, releasable)
	default: // EDN
		if len(releasable) > 0 {
			return a.containment(cm, pred, path, releasable)
		}
		return recovery.RungRestart
	}
}

// containment picks the cheapest reboot whose failure domain covers the
// site's blast radius: the owning component alone (microreboot), the
// smallest subtree containing every tainted component (subtree-reboot), or
// the whole process with state preserved (restore) when the taint escapes
// component ownership entirely.
func (a *Analysis) containment(cm *ComponentMap, pred *Prediction, path *WriteSet, releasable []string) recovery.Rung {
	if cm == nil || pred.Component == "" {
		return recovery.RungRestore
	}
	if len(path.Globals) > 0 || len(path.Buckets) > 0 {
		// Package-global or externalized-store corruption: outside every
		// component's failure domain. Globals fall to process recovery;
		// store corruption survives even that, so restart is the ceiling.
		if len(path.Buckets) > 0 {
			return recovery.RungRestart
		}
		return recovery.RungRestore
	}
	blast := map[string]bool{pred.Component: true}
	escaped := false
	for field := range path.Fields {
		if owner, owned := cm.FieldOwner[field]; owned {
			blast[owner] = true
			continue
		}
		// Unowned writes escape containment only when they hit component-owned
		// state: a field on a type the lifecycle hooks also touch, or a bare
		// key type information could not pin to any type (conservative). Writes
		// to other types — a parsed statement, a scratch buffer — are arrival-
		// local and die with the operation, not state a reboot must clear.
		if t := fieldType(field); t == "" || cm.HookTypes[t] {
			escaped = true
		}
	}
	// Releasable exhaustion state pulls its owner into the radius too: the
	// reboot must reach the component whose kill hook frees the resource.
	for _, field := range releasable {
		if owner, ok := cm.FieldOwner[field]; ok {
			blast[owner] = true
		}
	}
	pred.BlastRadius = sortedKeys(blast)
	if escaped {
		// Path corruption no kill hook clears: component reboots cannot
		// cure it; process restore (pre-op state) is the cheapest cure.
		return recovery.RungRestore
	}
	if len(blast) == 1 {
		return recovery.RungMicroreboot
	}
	// Cheapest single subtree covering the radius, by member count.
	bestName, bestSize := "", -1
	for _, name := range cm.Order {
		sub := cm.Subtree(name)
		covers := true
		for b := range blast {
			if !sub[b] {
				covers = false
				break
			}
		}
		if covers && (bestSize < 0 || len(sub) < bestSize) {
			bestName, bestSize = name, len(sub)
		}
	}
	if bestName != "" {
		pred.Component = bestName
		return recovery.RungSubtreeReboot
	}
	return recovery.RungRestore
}

// MechPrediction is the per-mechanism collapse of the site predictions —
// what the SCOPE experiment scores against registry truth and dynamic
// probes.
type MechPrediction struct {
	// Mechanism is the registry key.
	Mechanism string
	// Class is the voted class across the mechanism's sites.
	Class taxonomy.FaultClass
	// Component is the voted owning component ("" when unattributed).
	Component string
	// Rung is the costliest minimal rung across sites (the conservative
	// whole-mechanism plan).
	Rung recovery.Rung
	// Sites counts the raise sites speaking for the mechanism.
	Sites int
	// Interprocedural marks mechanisms where any site's class needed the
	// call-graph extension.
	Interprocedural bool
}

// ByMechanism collapses site predictions per mechanism key: environment
// evidence at any site wins over EI (a fault with one env-dependent raise
// is env-dependent), transient needs a strict majority among env sites, the
// component is the plurality vote, and the rung is the per-site maximum.
func (a *Analysis) ByMechanism() map[string]MechPrediction {
	type tally struct {
		sites           int
		ei, edn, edt    int
		comp            map[string]int
		rung            recovery.Rung
		interprocedural bool
	}
	tallies := make(map[string]*tally)
	for _, s := range a.Sites {
		for _, mech := range s.Mechanisms {
			t := tallies[mech]
			if t == nil {
				t = &tally{comp: make(map[string]int)}
				tallies[mech] = t
			}
			t.sites++
			switch s.Class {
			case taxonomy.ClassEnvDependentTransient:
				t.edt++
			case taxonomy.ClassEnvDependentNonTransient:
				t.edn++
			default:
				t.ei++
			}
			if s.Component != "" {
				t.comp[s.Component]++
			}
			if s.Rung > t.rung {
				t.rung = s.Rung
			}
			if s.Interprocedural {
				t.interprocedural = true
			}
		}
	}
	out := make(map[string]MechPrediction, len(tallies))
	for mech, t := range tallies {
		mp := MechPrediction{Mechanism: mech, Sites: t.sites, Rung: t.rung,
			Interprocedural: t.interprocedural}
		switch {
		case t.edt == 0 && t.edn == 0:
			mp.Class = taxonomy.ClassEnvIndependent
		case t.edt > t.edn:
			mp.Class = taxonomy.ClassEnvDependentTransient
		default:
			mp.Class = taxonomy.ClassEnvDependentNonTransient
		}
		best, bestN := "", 0
		for _, comp := range sortedKeys(boolKeys(t.comp)) {
			if n := t.comp[comp]; n > bestN {
				best, bestN = comp, n
			}
		}
		mp.Component = best
		out[mech] = mp
	}
	return out
}

// boolKeys adapts a count map for sortedKeys.
func boolKeys(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// Diagnostics renders the analysis as faultlint diagnostics: one advisory
// "scope" finding per raise site, plus a gating "scopegap" finding for any
// site whose mechanisms have no component attribution in a package that
// declares a component decomposition — a fault that silently falls back to
// whole-process recovery.
func (a *Analysis) Diagnostics() []faultlint.Diagnostic {
	var out []faultlint.Diagnostic
	for _, s := range a.Sites {
		msg := fmt.Sprintf("predicted %s fault, minimal rung %s", s.Class.Short(), s.Rung)
		if s.Component != "" {
			msg += " targeting " + s.Component
		}
		if len(s.BlastRadius) > 1 {
			msg += " (blast radius " + strings.Join(s.BlastRadius, ", ") + ")"
		}
		if s.Interprocedural {
			msg += " [env dependence via " + s.Via + "]"
		}
		out = append(out, faultlint.Diagnostic{
			Rule: "scope", Class: s.Class, File: s.File, Line: s.Line, Col: s.Col,
			Message: msg, Mechanisms: s.Mechanisms, Advisory: true,
		})
		cm := a.Maps[s.Pkg]
		if cm != nil && len(s.Mechanisms) > 0 && s.Component == "" {
			out = append(out, faultlint.Diagnostic{
				Rule: "scopegap", Class: s.Class, File: s.File, Line: s.Line, Col: s.Col,
				Message: fmt.Sprintf("mechanisms %s have no component attribution; the fault falls back to whole-process recovery",
					strings.Join(s.Mechanisms, ", ")),
				Mechanisms: s.Mechanisms,
			})
		}
	}
	return out
}
