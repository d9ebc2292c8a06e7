package recoveryscope

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"faultstudy/internal/faultlint"
	"faultstudy/internal/taxonomy"
)

// FuncKey identifies one function declaration across the loaded program.
type FuncKey struct {
	// Pkg is the directory the declaring package was loaded from.
	Pkg string
	// Recv is the receiver type name ("" for package functions).
	Recv string
	// Name is the function name.
	Name string
}

// String renders pkg.(Recv).Name for reports.
func (k FuncKey) String() string {
	base := filepath.Base(k.Pkg)
	if k.Recv != "" {
		return base + ".(" + k.Recv + ")." + k.Name
	}
	return base + "." + k.Name
}

// CallSite is one resolved direct call from a function.
type CallSite struct {
	// Pos is the call position.
	Pos int
	// Callee is the resolved target.
	Callee *FuncNode
}

// FuncNode is one function in the call graph, with its direct facts and the
// transitive summaries the fixpoint fills in.
type FuncNode struct {
	// Key identifies the function.
	Key FuncKey
	// Decl is the declaration.
	Decl *ast.FuncDecl
	// File is the declaring file.
	File *ast.File
	// Pkg is the declaring package.
	Pkg *faultlint.Package

	// EnvOps are the environment operations the body performs directly.
	EnvOps []faultlint.EnvOp
	// Calls are the resolved direct calls the body makes.
	Calls []CallSite

	// Writes is the body's direct write set.
	Writes *WriteSet
	// Triggers is the transitive set of environment trigger kinds the
	// function can reach (its own EnvOps joined with every callee's, to a
	// fixpoint).
	Triggers map[taxonomy.TriggerKind]bool
	// Reach is the transitive write set (Writes joined with every callee's).
	Reach *WriteSet
}

// Graph is the whole-program call graph over the loaded packages.
type Graph struct {
	// Pkgs are the packages, in load (directory) order.
	Pkgs []*faultlint.Package
	// Funcs indexes every function declaration.
	Funcs map[FuncKey]*FuncNode

	// methodsByPkg indexes methods by package dir and name, for the
	// best-effort resolution of method calls whose receiver type is unknown.
	methodsByPkg map[string]map[string][]*FuncNode
	// globalsByPkg caches each package's syntactic package-level var names.
	globalsByPkg map[string]map[string]bool
}

// BuildGraph indexes every function of the packages, collects their direct
// environment operations, calls, and writes, and runs the trigger/taint
// fixpoint so Triggers and Reach are transitive.
func BuildGraph(pkgs []*faultlint.Package) *Graph {
	g := &Graph{
		Pkgs:         pkgs,
		Funcs:        make(map[FuncKey]*FuncNode),
		methodsByPkg: make(map[string]map[string][]*FuncNode),
		globalsByPkg: make(map[string]map[string]bool),
	}
	// Pass 1: index declarations, direct env ops and writes.
	for _, p := range pkgs {
		g.globalsByPkg[p.Dir] = packageGlobals(p)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := FuncKey{Pkg: p.Dir, Recv: recvTypeName(fd), Name: fd.Name.Name}
				node := &FuncNode{
					Key:      key,
					Decl:     fd,
					File:     f,
					Pkg:      p,
					EnvOps:   faultlint.EnvOpsIn(fd.Body),
					Writes:   NewWriteSet(),
					Triggers: make(map[taxonomy.TriggerKind]bool),
				}
				collectWrites(p, fd.Body, g.globalsByPkg[p.Dir], node.Writes)
				node.Reach = node.Writes.Clone()
				for _, op := range node.EnvOps {
					if op.Trigger != taxonomy.TriggerUnknownKind {
						node.Triggers[op.Trigger] = true
					}
				}
				g.Funcs[key] = node
				if key.Recv != "" {
					byName := g.methodsByPkg[p.Dir]
					if byName == nil {
						byName = make(map[string][]*FuncNode)
						g.methodsByPkg[p.Dir] = byName
					}
					byName[key.Name] = append(byName[key.Name], node)
				}
			}
		}
	}
	// Pass 2: resolve direct calls (the index is complete now).
	for _, key := range g.sortedKeys() {
		node := g.Funcs[key]
		ast.Inspect(node.Decl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range g.ResolveCall(node.Pkg, node.File, call) {
				node.Calls = append(node.Calls, CallSite{Pos: int(call.Pos()), Callee: callee})
			}
			return true
		})
	}
	g.propagate()
	return g
}

// sortedKeys returns the function keys in deterministic order.
func (g *Graph) sortedKeys() []FuncKey {
	keys := make([]FuncKey, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Recv != b.Recv {
			return a.Recv < b.Recv
		}
		return a.Name < b.Name
	})
	return keys
}

// propagate runs the transitive-summary fixpoint: every function's Triggers
// and Reach absorb its callees' until nothing changes. Graphs here are tiny
// (hundreds of functions), so a simple round-robin fixpoint suffices; cycles
// (mutual recursion) converge because the joins are monotone.
func (g *Graph) propagate() {
	keys := g.sortedKeys()
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			node := g.Funcs[key]
			for _, call := range node.Calls {
				for t := range call.Callee.Triggers {
					if !node.Triggers[t] {
						node.Triggers[t] = true
						changed = true
					}
				}
				if node.Reach.Merge(call.Callee.Reach) {
					changed = true
				}
			}
		}
	}
}

// recvTypeName extracts the receiver type name of a method declaration,
// pointer receivers unwrapped ("" for package functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
			continue
		case *ast.IndexExpr: // generic receiver
			t = e.X
			continue
		}
		break
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// ResolveCall resolves a call expression to the function nodes it may
// target, best effort:
//
//   - f(...)            -> the package function f of the same package
//   - pkg.F(...)        -> F of the loaded package the import path names
//   - x.M(...)          -> methods named M: the receiver type's when type
//     information pins x down, every same-package M otherwise
//
// Unresolvable calls (stdlib, interfaces across packages, function values)
// return nil — the analysis degrades to intraprocedural there.
func (g *Graph) ResolveCall(p *faultlint.Package, f *ast.File, call *ast.CallExpr) []*FuncNode {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if node, ok := g.Funcs[FuncKey{Pkg: p.Dir, Name: fun.Name}]; ok {
			return []*FuncNode{node}
		}
	case *ast.SelectorExpr:
		if path, name, ok := p.PkgQualified(f, fun); ok {
			if target := g.pkgByImport(path); target != nil {
				if node, ok := g.Funcs[FuncKey{Pkg: target.Dir, Name: name}]; ok {
					return []*FuncNode{node}
				}
			}
			return nil
		}
		// Method call: pin the receiver type through type info when possible.
		if recv := receiverTypeName(p, fun.X); recv != "" {
			if node, ok := g.Funcs[FuncKey{Pkg: p.Dir, Recv: recv, Name: fun.Sel.Name}]; ok {
				return []*FuncNode{node}
			}
			return nil
		}
		// Unknown receiver: every same-package method of that name.
		return g.methodsByPkg[p.Dir][fun.Sel.Name]
	}
	return nil
}

// receiverTypeName resolves the named type of a method-call receiver
// expression through type information ("" when undeterminable).
func receiverTypeName(p *faultlint.Package, x ast.Expr) string {
	if tv, ok := p.Info.Types[x]; ok && tv.Type != nil {
		if name := namedTypeName(tv.Type); name != "" {
			return name
		}
	}
	if id, ok := x.(*ast.Ident); ok {
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok {
			return namedTypeName(v.Type())
		}
	}
	return ""
}

// namedTypeName unwraps pointers down to a named type's object name.
func namedTypeName(t types.Type) string {
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pkgByImport finds the loaded package an import path names: the path's
// module-relative tail must match the loaded directory's tail. Standard
// library paths resolve to nothing (their single segment never matches a
// loaded directory).
func (g *Graph) pkgByImport(path string) *faultlint.Package {
	i := strings.IndexByte(path, '/')
	if i < 0 {
		return nil
	}
	rel := path[i+1:]
	for _, p := range g.Pkgs {
		dir := filepath.ToSlash(p.Dir)
		if dir == path || dir == rel || strings.HasSuffix(dir, "/"+rel) {
			return p
		}
	}
	return nil
}
