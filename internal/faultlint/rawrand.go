package faultlint

import (
	"go/ast"

	"faultstudy/internal/taxonomy"
)

// rawrand flags draws from math/rand's package-level (global) source. The
// global source is shared, lockstepped across the process, and — absent an
// explicit Seed — differently seeded per run, so any experiment path that
// touches it stops being reproducible: the same workload no longer produces
// the same interleaving of simulated events. That is manufactured EDT
// nondeterminism. Constructing a dedicated generator (rand.New(
// rand.NewSource(seed))) and threading it is always available and is what
// every seeded path in this repository does.
var rawrandAnalyzer = &Analyzer{
	Name:  "rawrand",
	Doc:   "draw from the global math/rand source in a deterministic experiment path",
	Class: taxonomy.ClassEnvDependentTransient,
	Run:   runRawrand,
}

// globalRandFuncs are the math/rand package functions that consume the
// global source. Constructors (New, NewSource, NewZipf) are fine.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// randPaths are the import paths of math/rand across Go versions.
var randPaths = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func runRawrand(p *Pass) {
	for _, f := range p.Pkg.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, resolved := p.Pkg.PkgQualified(file, sel)
			if !resolved || !randPaths[path] || !globalRandFuncs[name] {
				return true
			}
			p.Reportf(call.Pos(),
				"rand.%s draws from the global math/rand source; thread a seeded *rand.Rand so the run is reproducible", name)
			return true
		})
	}
}
