package recoveryscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"faultstudy/internal/faultlint"
)

// WriteSet is the state a region of code can mutate, in the three state
// domains the component runtime distinguishes: receiver/struct fields
// (volatile per-process state a crash-stop discards), package-level
// variables (process-global state), and externalized-store buckets (state
// outside every component's failure domain).
type WriteSet struct {
	// Fields holds struct field names written through a selector
	// (s.leakFDs = ..., s.memBytes += ...).
	Fields map[string]bool
	// Globals holds package-level variable names written.
	Globals map[string]bool
	// Buckets holds externalized-store bucket names written via
	// Put/Incr/Delete calls with a constant bucket argument.
	Buckets map[string]bool
}

// NewWriteSet returns an empty write set.
func NewWriteSet() *WriteSet {
	return &WriteSet{
		Fields:  make(map[string]bool),
		Globals: make(map[string]bool),
		Buckets: make(map[string]bool),
	}
}

// Empty reports whether nothing is written.
func (w *WriteSet) Empty() bool {
	return len(w.Fields) == 0 && len(w.Globals) == 0 && len(w.Buckets) == 0
}

// Clone returns an independent copy.
func (w *WriteSet) Clone() *WriteSet {
	out := NewWriteSet()
	out.Merge(w)
	return out
}

// Merge folds other into w and reports whether anything changed.
func (w *WriteSet) Merge(other *WriteSet) bool {
	if other == nil {
		return false
	}
	changed := false
	for f := range other.Fields {
		if !w.Fields[f] {
			w.Fields[f] = true
			changed = true
		}
	}
	for g := range other.Globals {
		if !w.Globals[g] {
			w.Globals[g] = true
			changed = true
		}
	}
	for b := range other.Buckets {
		if !w.Buckets[b] {
			w.Buckets[b] = true
			changed = true
		}
	}
	return changed
}

// SortedFields returns the written field names in sorted order.
func (w *WriteSet) SortedFields() []string { return sortedKeys(w.Fields) }

// SortedGlobals returns the written package-level variable names sorted.
func (w *WriteSet) SortedGlobals() []string { return sortedKeys(w.Globals) }

// SortedBuckets returns the written store bucket names sorted.
func (w *WriteSet) SortedBuckets() []string { return sortedKeys(w.Buckets) }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// storeWriteMethods are the externalized-store mutators; a call to one with
// a constant first argument taints that bucket.
var storeWriteMethods = map[string]bool{
	"Put":  true,
	"Incr": true,
}

// collectWrites gathers the direct write set of a subtree: assignment and
// inc/dec targets, plus store-mutator calls. globals is the package's
// syntactic set of package-level variable names, the fallback when type
// information cannot settle whether an identifier is package-scoped.
func collectWrites(p *faultlint.Package, n ast.Node, globals map[string]bool, out *WriteSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch stmt := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				recordWrite(p, lhs, globals, out)
			}
		case *ast.IncDecStmt:
			recordWrite(p, stmt.X, globals, out)
		case *ast.CallExpr:
			recordStoreWrite(p, stmt, out)
		}
		return true
	})
}

// Field keys are qualified by the written struct's type ("Server.leakFDs")
// when type information pins it down, bare otherwise. The qualifier is what
// lets the analysis tell app-struct state from auxiliary structs (a parsed
// statement, a scratch buffer) that share field names with nothing.

// fieldType returns the type qualifier of a field key ("" when bare).
func fieldType(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return ""
}

// fieldBase returns the field name of a (possibly qualified) field key.
func fieldBase(key string) string {
	return key[strings.LastIndexByte(key, '.')+1:]
}

// baseNames collapses qualified field keys to their sorted, deduplicated
// field names — the report form, where the type qualifier is noise.
func baseNames(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[fieldBase(k)] = true
	}
	if len(seen) == 0 {
		return nil
	}
	return sortedKeys(seen)
}

// recordWrite classifies one assignment target into the write set.
func recordWrite(p *faultlint.Package, lhs ast.Expr, globals map[string]bool, out *WriteSet) {
	// Unwrap indexing and dereference down to the written base.
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		}
		break
	}
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		// x.field = ...; a package-qualified selector is a cross-package
		// global write instead.
		if id, ok := e.X.(*ast.Ident); ok {
			if obj, found := p.Info.Uses[id]; found {
				if _, isPkg := obj.(*types.PkgName); isPkg {
					out.Globals[e.Sel.Name] = true
					return
				}
			}
		}
		key := e.Sel.Name
		if t := receiverTypeName(p, e.X); t != "" {
			key = t + "." + key
		}
		out.Fields[key] = true
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		if isPackageLevelVar(p, e, globals) {
			out.Globals[e.Name] = true
		}
	}
}

// isPackageLevelVar reports whether an identifier resolves to (or, without
// type information, syntactically matches) a package-level variable.
func isPackageLevelVar(p *faultlint.Package, id *ast.Ident, globals map[string]bool) bool {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok {
		// The package scope's parent is the universe scope; any local's
		// scope chain passes through a function scope first.
		if scope := v.Parent(); scope != nil {
			return scope.Parent() == types.Universe
		}
		return false
	}
	return globals[id.Name]
}

// recordStoreWrite recognizes externalized-store mutations with a constant
// bucket argument (store.Incr(SessionBucket, key)).
func recordStoreWrite(p *faultlint.Package, call *ast.CallExpr, out *WriteSet) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !storeWriteMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	if bucket, ok := p.ConstString(call.Args[0]); ok && strings.Contains(bucket, "/") {
		out.Buckets[bucket] = true
	}
}

// packageGlobals collects the package-level variable names of a package
// syntactically, as the no-type-info fallback for global-write detection.
func packageGlobals(p *faultlint.Package) map[string]bool {
	out := make(map[string]bool)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						out[name.Name] = true
					}
				}
			}
		}
	}
	return out
}
