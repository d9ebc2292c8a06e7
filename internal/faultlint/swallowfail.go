package faultlint

import (
	"go/ast"
	"strings"

	"faultstudy/internal/taxonomy"
)

// swallowfail flags a caught *faultinject.FailureError that is dropped
// without reclassification. A FailureError carries the mechanism and symptom
// that the recovery harness scores; a handler that detects one and then
// returns success (or blanks the error) erases the fault from every
// downstream ledger — the recovery matrix, the supervisor report, the
// class tallies. The fault itself persists, unobserved: a latent EDN
// pattern. Handlers must either propagate the failure, wrap it, or
// explicitly reclassify it.
//
// Recognized catch shapes:
//
//	if fe, ok := faultinject.AsFailure(err); ok { ... }
//	var fe *faultinject.FailureError
//	if errors.As(err, &fe) { ... }
//
// The catch is a swallow when its body terminates by dropping the error:
// an empty body, a return whose results are all zero literals (nil, 0, "",
// false), or an assignment of nil to the error — with no path that returns
// or rethrows the failure.
var swallowfailAnalyzer = &Analyzer{
	Name:  "swallowfail",
	Doc:   "caught faultinject.FailureError dropped without reclassification",
	Class: taxonomy.ClassEnvDependentNonTransient,
	Run:   runSwallowfail,
}

// failureCatch recognizes the two catch shapes and returns the identifiers
// bound to the failure and to the original error.
func (p *Package) failureCatch(f *ast.File, ifStmt *ast.IfStmt) (failIdent, errIdent string, ok bool) {
	// Shape 1: if fe, ok := faultinject.AsFailure(err); ok { ... }
	if init, isAssign := ifStmt.Init.(*ast.AssignStmt); isAssign && len(init.Rhs) == 1 {
		if call, isCall := init.Rhs[0].(*ast.CallExpr); isCall {
			if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
				if path, name, resolved := p.PkgQualified(f, sel); resolved &&
					isFaultinjectPath(path) && name == "AsFailure" {
					fe := ""
					if len(init.Lhs) > 0 {
						if id, isIdent := init.Lhs[0].(*ast.Ident); isIdent {
							fe = id.Name
						}
					}
					errName := ""
					if len(call.Args) == 1 {
						if id, isIdent := call.Args[0].(*ast.Ident); isIdent {
							errName = id.Name
						}
					}
					return fe, errName, true
				}
			}
		}
	}
	// Shape 2: if errors.As(err, &fe) { ... } with fe declared as a
	// *FailureError somewhere in the file.
	if call, isCall := ifStmt.Cond.(*ast.CallExpr); isCall && len(call.Args) == 2 {
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			if path, name, resolved := p.PkgQualified(f, sel); resolved && path == "errors" && name == "As" {
				if unary, isUnary := call.Args[1].(*ast.UnaryExpr); isUnary {
					if target, isIdent := unary.X.(*ast.Ident); isIdent && fileDeclaresFailureVar(f, target.Name) {
						errName := ""
						if id, isIdent := call.Args[0].(*ast.Ident); isIdent {
							errName = id.Name
						}
						return target.Name, errName, true
					}
				}
			}
		}
	}
	return "", "", false
}

// fileDeclaresFailureVar reports whether the file declares a variable with
// the given name whose type mentions FailureError.
func fileDeclaresFailureVar(f *ast.File, name string) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || vs.Type == nil {
			return !found
		}
		typeHasFailure := false
		ast.Inspect(vs.Type, func(m ast.Node) bool {
			if id, isIdent := m.(*ast.Ident); isIdent && strings.Contains(id.Name, "FailureError") {
				typeHasFailure = true
			}
			return !typeHasFailure
		})
		if !typeHasFailure {
			return !found
		}
		for _, vn := range vs.Names {
			if vn.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// isZeroExpr reports literal zero values: nil, 0, "", false.
func isZeroExpr(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name == "nil" || e.Name == "false"
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == `""` || e.Value == "``" || e.Value == "0.0"
	}
	return false
}

// bodyDropsFailure decides whether the catch body swallows: it must contain
// a dropping terminator and no statement that propagates the failure.
func bodyDropsFailure(body *ast.BlockStmt, failIdent, errIdent string) bool {
	if body == nil {
		return false
	}
	if len(body.List) == 0 {
		return true
	}
	drops, propagates := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			allZero := true
			for _, res := range s.Results {
				if isZeroExpr(res) {
					continue
				}
				allZero = false
				if identNamed(res, failIdent) || identNamed(res, errIdent) {
					propagates = true
				}
				// Returning any constructed error value counts as
				// reclassification.
				if _, isCall := res.(*ast.CallExpr); isCall {
					propagates = true
				}
			}
			if allZero {
				drops = true
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if errIdent != "" && identNamed(lhs, errIdent) && i < len(s.Rhs) && isNilIdent(s.Rhs[i]) {
					drops = true
				}
			}
		}
		return true
	})
	return drops && !propagates
}

func runSwallowfail(p *Pass) {
	for _, f := range p.Pkg.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			ifStmt, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			failIdent, errIdent, isCatch := p.Pkg.failureCatch(file, ifStmt)
			if !isCatch || !bodyDropsFailure(ifStmt.Body, failIdent, errIdent) {
				return true
			}
			p.Reportf(ifStmt.Pos(),
				"FailureError caught and dropped without reclassification; the fault's mechanism and class are erased from every downstream ledger")
			return true
		})
	}
}
