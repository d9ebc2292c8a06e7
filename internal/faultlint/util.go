package faultlint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// fileImports maps the local name of each import in a file to its path.
// Dot and blank imports are skipped.
func fileImports(f *ast.File) map[string]string {
	out := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		} else {
			name = path
			if i := strings.LastIndexByte(name, '/'); i >= 0 {
				name = name[i+1:]
			}
		}
		out[name] = path
	}
	return out
}

// PkgQualified reports the import path and selector name of a qualified
// selector expression pkg.Name in a file, resolving pkg first through type
// info (shadow-proof) and then through the file's import table.
func (p *Package) PkgQualified(f *ast.File, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	if obj, found := p.Info.Uses[id]; found {
		if pn, isPkg := obj.(*types.PkgName); isPkg {
			return pn.Imported().Path(), sel.Sel.Name, true
		}
		// Resolved to a non-package object: a local variable shadows the
		// import (or it never was one).
		return "", "", false
	}
	imports := fileImports(f)
	if path, found := imports[id.Name]; found {
		return path, sel.Sel.Name, true
	}
	return "", "", false
}

// ConstString resolves the string value of an expression — a literal, a
// constant identifier (through type info, falling back to the syntactic
// package-level constant table), or nothing for computed values.
func (p *Package) ConstString(expr ast.Expr) (string, bool) {
	if tv, ok := p.Info.Types[expr]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	switch e := expr.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			if v, err := strconv.Unquote(e.Value); err == nil {
				return v, true
			}
		}
	case *ast.Ident:
		if obj, ok := p.Info.Uses[e]; ok {
			if c, isConst := obj.(*types.Const); isConst && c.Val().Kind() == constant.String {
				return constant.StringVal(c.Val()), true
			}
		}
		if v, ok := p.consts[e.Name]; ok {
			return v, true
		}
	case *ast.SelectorExpr:
		// Qualified constant (httpd.MechFDExhaustion): unresolvable through
		// stub imports; give up.
	}
	return "", false
}

// envGetters names the simenv.Env facility accessors. A call chain of the
// shape <recv>.<getter>().<method>(...) marks <method> as an operation
// against the simulated operating environment.
var envGetters = map[string]bool{
	"FDs":     true,
	"Procs":   true,
	"Disk":    true,
	"DNS":     true,
	"Net":     true,
	"Sched":   true,
	"Entropy": true,
}

// envDirectMethods are environment operations invoked directly on an Env
// value (or on a struct field named env) without a facility getter.
var envDirectMethods = map[string]bool{
	"Hostname": true,
	"Advance":  true,
	"Reroll":   true,
}

// asEnvCall recognizes calls against the simulated environment:
//
//	x.FDs().Open(...)    -> {FDs, Open}
//	s.env.Hostname()     -> {Env, Hostname}
func asEnvCall(call *ast.CallExpr) (EnvOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return EnvOp{}, false
	}
	facility := ""
	// Facility form: receiver is itself a call to an env getter.
	if inner, ok := sel.X.(*ast.CallExpr); ok {
		if innerSel, ok := inner.Fun.(*ast.SelectorExpr); ok && envGetters[innerSel.Sel.Name] && len(inner.Args) == 0 {
			facility = innerSel.Sel.Name
		}
	}
	// Direct form: method on something named env/Env.
	if facility == "" && envDirectMethods[sel.Sel.Name] {
		switch x := sel.X.(type) {
		case *ast.Ident:
			if strings.EqualFold(x.Name, "env") {
				facility = "Env"
			}
		case *ast.SelectorExpr:
			if strings.EqualFold(x.Sel.Name, "env") {
				facility = "Env"
			}
		}
	}
	if facility == "" {
		return EnvOp{}, false
	}
	method := sel.Sel.Name
	return EnvOp{Facility: facility, Method: method, Pos: call.Pos(), Trigger: envTrigger(facility, method)}, true
}

// WalkWithStack walks a file depth-first, handing each node its ancestor
// path (excluding the node itself). Returning false skips the subtree.
func WalkWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		stack = append(stack, n)
		if !keep {
			// Still must push/pop symmetrically; Inspect will not descend,
			// and will not call us with nil for this node.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// identNamed reports whether the expression is (or ends in) an identifier
// with the given name.
func identNamed(expr ast.Expr, name string) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.SelectorExpr:
		return e.Sel.Name == name
	}
	return false
}

// isNilIdent reports whether the expression is the predeclared nil.
func isNilIdent(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "nil"
}

// callName returns the bare name of a called function or method
// ("Sleep" for time.Sleep, x.Sleep, or Sleep).
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
