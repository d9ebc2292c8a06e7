package faultlint

import (
	"go/ast"
	"go/token"
	"strings"

	"faultstudy/internal/taxonomy"
)

// envsite classifies seeded fault-raise sites. A call to faultinject.Fail or
// faultinject.FailCause is the static signature of one corpus fault
// transplanted into a simulated application; the environmental facility
// consulted on the path to the raise decides the predicted class, exactly as
// the paper's manual classification reasoned from the triggering condition:
//
//   - no environment operation near the raise  -> workload-only   -> EI
//   - persistent-condition facility (disk, fd,
//     host config, network resource)           -> nontransient    -> EDN
//   - self-healing facility (DNS, scheduler,
//     process table, entropy, link speed)      -> transient       -> EDT
//
// Each diagnostic carries the mechanism keys resolved from the raise's first
// argument (or from the enclosing switch case list), which is what the LINT
// validation experiment cross-checks against the seeded registry.
var envsiteAnalyzer = &Analyzer{
	Name:     "envsite",
	Doc:      "classify seeded fault-raise sites by the environmental facility they depend on",
	Class:    taxonomy.ClassUnknown, // per-site
	Advisory: true,                  // classification of the corpus, not a defect
	Run:      runEnvsite,
}

// envMethodTrigger maps Facility.Method of a recognized environment call to
// the trigger kind it stands for; TriggerKind.DefaultClass then yields the
// predicted fault class under the paper's §5 rules.
var envMethodTrigger = map[string]taxonomy.TriggerKind{
	"FDs.Open":             taxonomy.TriggerFDExhaustion,
	"Disk.Append":          taxonomy.TriggerDiskFull,
	"Disk.FillFrom":        taxonomy.TriggerDiskFull,
	"Disk.Truncate":        taxonomy.TriggerDiskFull,
	"Disk.Size":            taxonomy.TriggerFileSizeLimit,
	"Disk.IllegalOwner":    taxonomy.TriggerHostConfig,
	"DNS.Lookup":           taxonomy.TriggerDNSFailure,
	"DNS.Reverse":          taxonomy.TriggerHostConfig,
	"Procs.Spawn":          taxonomy.TriggerProcessTable,
	"Net.BindPort":         taxonomy.TriggerProcessTable,
	"Net.AcquireResource":  taxonomy.TriggerNetworkResource,
	"Net.InterfacePresent": taxonomy.TriggerNetworkResource,
	"Net.Slow":             taxonomy.TriggerSlowNetwork,
	"Entropy.Draw":         taxonomy.TriggerEntropy,
	"Sched.RaceFires":      taxonomy.TriggerRace,
	"Env.Hostname":         taxonomy.TriggerHostConfig,
}

// envFacilityTrigger is the per-facility fallback for unmapped methods.
var envFacilityTrigger = map[string]taxonomy.TriggerKind{
	"FDs":     taxonomy.TriggerFDExhaustion,
	"Disk":    taxonomy.TriggerDiskFull,
	"DNS":     taxonomy.TriggerDNSFailure,
	"Procs":   taxonomy.TriggerProcessTable,
	"Net":     taxonomy.TriggerNetworkResource,
	"Sched":   taxonomy.TriggerRace,
	"Entropy": taxonomy.TriggerEntropy,
	"Env":     taxonomy.TriggerHostConfig,
}

// envTrigger resolves the trigger kind an environment operation stands for.
func envTrigger(facility, method string) taxonomy.TriggerKind {
	if t, ok := envMethodTrigger[facility+"."+method]; ok {
		return t
	}
	if t, ok := envFacilityTrigger[facility]; ok {
		return t
	}
	return taxonomy.TriggerUnknownKind
}

// isFaultinjectPath reports whether an import path denotes the faultinject
// package (the real one or a fixture stand-in).
func isFaultinjectPath(path string) bool {
	return path == "faultinject" || strings.HasSuffix(path, "/faultinject")
}

// asFailCall recognizes faultinject.Fail / faultinject.FailCause calls and
// reports which form was used.
func (p *Package) asFailCall(f *ast.File, call *ast.CallExpr) (isFail, withCause bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false, false
	}
	path, name, ok := p.PkgQualified(f, sel)
	if !ok || !isFaultinjectPath(path) {
		return false, false
	}
	switch name {
	case "Fail":
		return true, false
	case "FailCause":
		return true, true
	}
	return false, false
}

// mechanismsOf resolves the mechanism keys a raise site speaks for: the
// constant value of the first argument, or — when the key is computed (the
// template-bug pattern switch(key) { case MechA, MechB: ... }) — the
// constants enumerated by the enclosing case clause.
func (p *Package) mechanismsOf(call *ast.CallExpr, stack []ast.Node) []string {
	if len(call.Args) > 0 {
		if v, ok := p.ConstString(call.Args[0]); ok {
			return []string{v}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		cc, ok := stack[i].(*ast.CaseClause)
		if !ok {
			continue
		}
		var keys []string
		for _, expr := range cc.List {
			if v, ok := p.ConstString(expr); ok && strings.Contains(v, "/") {
				keys = append(keys, v)
			}
		}
		if len(keys) > 0 {
			return keys
		}
	}
	return nil
}

// collectEnvCalls gathers all recognized environment calls inside a subtree.
func collectEnvCalls(n ast.Node, out *[]EnvOp) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if ec, ok := asEnvCall(call); ok {
				*out = append(*out, ec)
			}
		}
		return true
	})
}

// isSimpleStmt reports whether a sibling statement is scanned during the
// backward walk: plain assignments, expressions, declarations, and
// increments — but not nested control flow, whose interior belongs to a
// different path.
func isSimpleStmt(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.AssignStmt, *ast.ExprStmt, *ast.DeclStmt, *ast.IncDecStmt:
		return true
	}
	return false
}

// NearestEnvOp finds the environment operation that guards a site: the
// latest-positioned recognized env call that precedes the site, drawn from
// (a) the init/cond of enclosing if/switch/for statements and (b) the simple
// sibling statements above the site in each enclosing block, all bounded by
// the enclosing function. This is the exact intraprocedural judgment of the
// envsite rule.
func NearestEnvOp(site token.Pos, stack []ast.Node) (EnvOp, bool) {
	var candidates []EnvOp
	for _, n := range GuardNodes(site, stack) {
		collectEnvCalls(n, &candidates)
	}
	best := EnvOp{}
	found := false
	for _, c := range candidates {
		if c.Pos < site && (!found || c.Pos > best.Pos) {
			best, found = c, true
		}
	}
	return best, found
}

func runEnvsite(p *Pass) {
	for _, f := range p.Pkg.Files {
		file := f
		WalkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			isFail, withCause := p.Pkg.asFailCall(file, call)
			if !isFail {
				return true
			}
			mechs := p.Pkg.mechanismsOf(call, stack)
			ec, found := NearestEnvOp(call.Pos(), stack)
			switch {
			case found:
				trigger := ec.Trigger
				class := trigger.DefaultClass()
				p.ReportSite(call.Pos(), class, mechs,
					"fault raise depends on env %s.%s (trigger %s): predicted %s",
					ec.Facility, ec.Method, trigger, class.Short())
			case withCause:
				// FailCause wraps an environment error by contract; with no
				// visible facility the persistent-condition prior applies.
				class := taxonomy.ClassEnvDependentNonTransient
				p.ReportSite(call.Pos(), class, mechs,
					"fault raise wraps an environment error from an unrecognized facility: predicted %s", class.Short())
			default:
				class := taxonomy.ClassEnvIndependent
				p.ReportSite(call.Pos(), class, mechs,
					"fault raise has no environmental dependence in scope (workload-only): predicted %s", class.Short())
			}
			return true
		})
	}
}
