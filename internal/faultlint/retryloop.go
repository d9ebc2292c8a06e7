package faultlint

import (
	"go/ast"

	"faultstudy/internal/taxonomy"
)

// retryloop flags loops that re-invoke an environment-dependent operation on
// failure without any backoff, clock advance, or circuit breaker. The paper's
// central negative result is that environment-dependent-nontransient faults
// are "unlikely to be fixed during the short duration of a retry": a tight
// retry against a full disk or an exhausted descriptor table burns cycles
// and recovers nothing. A loop qualifies when it
//
//   - contains an environment-dependent call (simenv facility or os/net),
//   - retries on error (an `if err != nil { continue }` arm, or a loop
//     condition mentioning err), and
//   - contains no pacing call (Sleep, Advance, Wait, Backoff, Allow, Tick).
var retryloopAnalyzer = &Analyzer{
	Name:  "retryloop",
	Doc:   "retry loop over an environment-dependent operation with no backoff or breaker",
	Class: taxonomy.ClassEnvDependentNonTransient,
	Run:   runRetryloop,
}

// pacingCalls name the calls that make a retry loop acceptable: they yield,
// delay, or gate the next attempt.
var pacingCalls = map[string]bool{
	"Sleep":   true,
	"Advance": true,
	"Wait":    true,
	"Backoff": true,
	"Allow":   true,
	"Tick":    true,
	"After":   true,
	"Gosched": true,
}

// loopEnvOp reports whether the loop body contains an environment-dependent
// call, returning its description.
func (p *Package) loopEnvOp(f *ast.File, body *ast.BlockStmt) (string, bool) {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ec, isEnv := asEnvCall(call); isEnv {
			if envAcquireMethods[ec.Method] {
				found = ec.Facility + "." + ec.Method
			}
			return true
		}
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			if path, name, resolved := p.PkgQualified(f, sel); resolved {
				if funcs, known := osNetAcquireFuncs[path]; known && funcs[name] {
					found = path + "." + name
				}
			}
		}
		return true
	})
	return found, found != ""
}

// mentionsErrIdent reports whether the expression references an identifier
// named err (or ending in Err/err).
func mentionsErrIdent(expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if id.Name == "err" || len(id.Name) > 3 && (id.Name[len(id.Name)-3:] == "Err" || id.Name[len(id.Name)-3:] == "err") {
				found = true
			}
		}
		return !found
	})
	return found
}

// retriesOnError reports whether the loop body continues (or falls through
// to the next iteration) under an error check.
func retriesOnError(loop *ast.ForStmt) bool {
	if mentionsErrIdent(loop.Cond) {
		return true
	}
	retry := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || !mentionsErrIdent(ifStmt.Cond) {
			return true
		}
		ast.Inspect(ifStmt.Body, func(m ast.Node) bool {
			if br, isBranch := m.(*ast.BranchStmt); isBranch && br.Tok.String() == "continue" {
				retry = true
			}
			return !retry
		})
		return !retry
	})
	return retry
}

// hasPacing reports whether the loop body calls any pacing function.
func hasPacing(body *ast.BlockStmt) bool {
	paced := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && pacingCalls[callName(call)] {
			paced = true
		}
		return !paced
	})
	return paced
}

func runRetryloop(p *Pass) {
	for _, f := range p.Pkg.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Body == nil {
				return true
			}
			op, hasOp := p.Pkg.loopEnvOp(file, loop.Body)
			if !hasOp || !retriesOnError(loop) || hasPacing(loop.Body) {
				return true
			}
			p.Reportf(loop.Pos(),
				"loop retries environment-dependent %s with no backoff or breaker; a nontransient condition makes this retry storm pointless", op)
			return true
		})
	}
}
