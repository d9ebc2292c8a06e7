package faultlint

import (
	"go/ast"

	"faultstudy/internal/taxonomy"
)

// envcheck flags discarded errors from environment-dependent *acquire*
// operations. Ignoring the error of an acquisition (a descriptor open, a
// disk append, a child spawn, a name lookup) silently assumes the
// environment cooperates; when it stops cooperating — the paper's full
// disks, exhausted descriptor tables, dead name servers — the fault
// surfaces later and darker. The predicted class is EDN: the defect lies
// dormant until a persistent environmental condition arrives, and retry
// will not clear it.
//
// Discarding errors from *release* operations (Close, Kill, ReleasePort...)
// is idiomatic cleanup and not flagged.
var envcheckAnalyzer = &Analyzer{
	Name:  "envcheck",
	Doc:   "discarded error from an environment-dependent acquire operation",
	Class: taxonomy.ClassEnvDependentNonTransient,
	Run:   runEnvcheck,
}

// envAcquireMethods are the environment operations whose errors must not be
// dropped: they acquire or probe a resource the environment can refuse.
var envAcquireMethods = map[string]bool{
	"Open":            true, // FDs
	"Append":          true, // Disk
	"FillFrom":        true,
	"Size":            true,
	"IllegalOwner":    true,
	"Lookup":          true, // DNS
	"Reverse":         true,
	"Spawn":           true, // Procs
	"BindPort":        true, // Net
	"AcquireResource": true,
	"Draw":            true, // Entropy
}

// osNetAcquireFuncs are stdlib calls in command/example binaries whose
// errors carry environment dependence.
var osNetAcquireFuncs = map[string]map[string]bool{
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
		"WriteFile": true, "MkdirAll": true, "Mkdir": true, "ReadDir": true,
	},
	"net": {
		"Listen": true, "Dial": true, "DialTimeout": true, "LookupHost": true,
		"LookupAddr": true, "ResolveTCPAddr": true,
	},
}

// discardedEnvAcquire reports whether the call is an env-dependent acquire
// operation (simenv facility form or os/net qualified form).
func (p *Package) discardedEnvAcquire(f *ast.File, call *ast.CallExpr) (what string, ok bool) {
	if ec, isEnv := asEnvCall(call); isEnv {
		if envAcquireMethods[ec.Method] {
			return ec.Facility + "." + ec.Method, true
		}
		return "", false
	}
	if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
		if path, name, resolved := p.PkgQualified(f, sel); resolved {
			if funcs, known := osNetAcquireFuncs[path]; known && funcs[name] {
				return path + "." + name, true
			}
		}
	}
	return "", false
}

func runEnvcheck(p *Pass) {
	for _, f := range p.Pkg.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) != 1 {
				return true
			}
			call, ok := assign.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			what, isAcquire := p.Pkg.discardedEnvAcquire(file, call)
			if !isAcquire {
				return true
			}
			// The error is conventionally the final result: flag when the
			// final assignment target is blank. `_ = call()` (single target)
			// is the degenerate case.
			last, ok := assign.Lhs[len(assign.Lhs)-1].(*ast.Ident)
			if !ok || last.Name != "_" {
				return true
			}
			p.Reportf(assign.Pos(),
				"error from environment-dependent %s discarded; a persistent environmental condition (full disk, exhausted table, dead resolver) turns this into a latent fault", what)
			return true
		})
	}
}
