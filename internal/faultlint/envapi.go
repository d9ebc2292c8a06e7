package faultlint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"faultstudy/internal/taxonomy"
)

// This file is the exported surface other analyses build on. The envsite
// rule's internals — environment-call recognition, the guard-path backward
// walk, fail-site recognition — are re-exported here so that
// internal/recoveryscope can extend the same judgment interprocedurally
// without re-deriving (and drifting from) the intraprocedural semantics.

// EnvOp is one recognized operation against the simulated environment,
// together with the trigger kind it stands for under the paper's §5 rules.
type EnvOp struct {
	// Facility is the env getter ("FDs", "Disk", ... or "Env" for direct
	// methods such as Hostname).
	Facility string
	// Method is the operation name.
	Method string
	// Pos is the call position.
	Pos token.Pos
	// Trigger is the trigger kind the operation stands for;
	// Trigger.DefaultClass() yields the predicted fault class.
	Trigger taxonomy.TriggerKind
}

// EnvOpsIn gathers every recognized environment operation inside a subtree,
// in source order.
func EnvOpsIn(n ast.Node) []EnvOp {
	var calls []envCall
	collectEnvCalls(n, &calls)
	out := make([]EnvOp, 0, len(calls))
	for _, c := range calls {
		out = append(out, EnvOp{Facility: c.Facility, Method: c.Method, Pos: c.Pos, Trigger: envCallTrigger(c)})
	}
	return out
}

// GuardNodes returns the syntax regions that guard a site, innermost first:
// the init/cond/tag expressions of enclosing if/switch/for/range statements
// and the simple sibling statements preceding the site in each enclosing
// block, bounded by the enclosing function. These are exactly the regions
// the envsite rule scans for environment calls; recoveryscope scans the same
// regions for calls into environment-reaching functions.
func GuardNodes(site token.Pos, stack []ast.Node) []ast.Node {
	var out []ast.Node
	add := func(n ast.Node) {
		if n != nil {
			out = append(out, n)
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			i = -1 // do not escape the enclosing function
		case *ast.IfStmt:
			add(n.Init)
			add(n.Cond)
		case *ast.SwitchStmt:
			add(n.Init)
			add(n.Tag)
		case *ast.ForStmt:
			add(n.Init)
			add(n.Cond)
		case *ast.RangeStmt:
			add(n.X)
		case *ast.BlockStmt:
			// Locate the child statement our path goes through, then walk its
			// earlier simple siblings.
			var child ast.Node
			if i+1 < len(stack) {
				child = stack[i+1]
			}
			for _, stmt := range n.List {
				if child != nil && stmt.Pos() <= child.Pos() && child.End() <= stmt.End() {
					break
				}
				if isSimpleStmt(stmt) && stmt.End() <= site {
					add(stmt)
				}
			}
		}
		if i < 0 {
			break
		}
	}
	return out
}

// GuardCalls returns every call expression inside the guard regions of a
// site that starts before the site, in source order. Callers filter these
// down to calls they can resolve (direct env operations, or functions whose
// summaries show transitive environment dependence).
func GuardCalls(site token.Pos, stack []ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	for _, n := range GuardNodes(site, stack) {
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && call.Pos() < site {
				out = append(out, call)
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// NearestEnvOp finds the environment operation that guards a site: the
// latest-positioned recognized env call preceding the site within its guard
// regions. This is the exact intraprocedural judgment of the envsite rule.
func NearestEnvOp(site token.Pos, stack []ast.Node) (EnvOp, bool) {
	ec, ok := nearestEnvCall(site, stack)
	if !ok {
		return EnvOp{}, false
	}
	return EnvOp{Facility: ec.Facility, Method: ec.Method, Pos: ec.Pos, Trigger: envCallTrigger(ec)}, true
}

// FailSite is one recognized seeded fault-raise site: a call to
// faultinject.Fail or faultinject.FailCause.
type FailSite struct {
	// Call is the raise expression.
	Call *ast.CallExpr
	// WithCause distinguishes FailCause (wraps an environment error by
	// contract) from Fail.
	WithCause bool
	// Mechanisms lists the registry keys the site speaks for: the constant
	// first argument, or the constants of the enclosing case clause.
	Mechanisms []string
	// Symptom is the declared failure symptom (taxonomy.Symptom* second
	// argument), SymptomUnknown when not syntactically resolvable.
	Symptom taxonomy.Symptom
}

// AsFailSite recognizes a faultinject.Fail/FailCause call and resolves its
// mechanism keys and declared symptom.
func (p *Package) AsFailSite(f *ast.File, call *ast.CallExpr, stack []ast.Node) (FailSite, bool) {
	isFail, withCause := p.asFailCall(f, call)
	if !isFail {
		return FailSite{}, false
	}
	return FailSite{
		Call:       call,
		WithCause:  withCause,
		Mechanisms: p.mechanismsOf(call, stack),
		Symptom:    p.failSymptom(f, call),
	}, true
}

// failSymptom resolves the symptom argument of a raise: a qualified
// taxonomy.Symptom<Name> selector in argument position 1, or a constant
// string naming the symptom (the fixture stand-in form).
func (p *Package) failSymptom(f *ast.File, call *ast.CallExpr) taxonomy.Symptom {
	if len(call.Args) < 2 {
		return taxonomy.SymptomUnknown
	}
	if v, ok := p.constString(call.Args[1]); ok {
		if s, err := taxonomy.ParseSymptom(v); err == nil {
			return s
		}
		return taxonomy.SymptomUnknown
	}
	sel, ok := call.Args[1].(*ast.SelectorExpr)
	if !ok {
		return taxonomy.SymptomUnknown
	}
	path, name, ok := p.pkgQualified(f, sel)
	if !ok || (path != "taxonomy" && !strings.HasSuffix(path, "/taxonomy")) {
		return taxonomy.SymptomUnknown
	}
	if !strings.HasPrefix(name, "Symptom") {
		return taxonomy.SymptomUnknown
	}
	s, err := taxonomy.ParseSymptom(strings.ToLower(strings.TrimPrefix(name, "Symptom")))
	if err != nil {
		return taxonomy.SymptomUnknown
	}
	return s
}

// ConstString resolves the string value of an expression — a literal, a
// constant identifier (through type info, falling back to the syntactic
// package-level constant table), or nothing for computed values.
func (p *Package) ConstString(expr ast.Expr) (string, bool) {
	return p.constString(expr)
}

// PkgQualified reports the import path and selector name of a qualified
// selector expression pkg.Name in a file, resolving the package identifier
// through type info first and the import table second.
func (p *Package) PkgQualified(f *ast.File, sel *ast.SelectorExpr) (path, name string, ok bool) {
	return p.pkgQualified(f, sel)
}

// WalkWithStack walks a file depth-first, handing each node its ancestor
// path (excluding the node itself). Returning false skips the subtree.
func WalkWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	withStack(f, fn)
}

// SortDiagnostics orders diagnostics deterministically by
// file/line/col/rule — the canonical report order. Run applies it; callers
// that merge diagnostics from several analyses (cmd/faultlint -scope) must
// re-apply it before rendering.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// ApplySuppressions annotates diagnostics with the //faultlint:ignore
// directives found in the packages, exactly as Run does for its own
// findings. External analyses that append diagnostics (recoveryscope) call
// this so ignore comments cover their rules too.
func ApplySuppressions(pkgs []*Package, diags []Diagnostic) {
	index := newSuppressionIndex()
	for _, pkg := range pkgs {
		index.collect(pkg)
	}
	index.apply(diags)
}
