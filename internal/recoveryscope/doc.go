// Package recoveryscope is a whole-program interprocedural static analysis
// that predicts, for every seeded fault-raise site, which recovery rung is
// the cheapest that can cure a fault there — before any fault ever fires.
//
// It extends faultlint's intraprocedural envsite judgment in three ways, on
// the same go/ast + go/types loader (stub imports, no export data):
//
//   - Environment flow: a call graph is built over every loaded package and
//     the trigger kinds of recognized environment operations are propagated
//     transitively, so a function that reaches DNS().Lookup three frames
//     down is environment-dependent at its call sites. A raise guarded by a
//     call into such a function inherits its class, using exactly the guard
//     regions (if/switch/for conditions and preceding simple siblings) the
//     envsite rule scans — so the intraprocedural verdicts are unchanged and
//     only sites envsite classified EI-by-ignorance can be reclassified.
//
//   - State taint: each function's write set — receiver struct fields,
//     package-level variables, externalized-store buckets — is collected
//     syntactically and propagated over the call graph. A raise site then
//     carries two taints: the path taint (writes in its guard regions, the
//     corruption the fault path performs before detection) and the function
//     taint (the enclosing function's transitive write set, the resources
//     the fault's code can hold).
//
//   - Component mapping: each application's Componentize decomposition is
//     read statically — component.Spec literals yield the component names,
//     dependency edges, and the write sets of their OnKill hooks (what a
//     crash-stop releases); the package's mechanism→component map literal
//     yields fault attribution. Taint is then expressed in component terms:
//     which components own the written fields, and whether a kill hook
//     releases them.
//
// The three feed a per-site prediction {class, owning component, blast
// radius, minimal rung} over recovery.Rungs, the ladder retry < microreboot
// < subtree-reboot < restore < restart. The rung rules follow the paper's
// table 8 reasoning (what each class leaves behind decides what must be
// discarded to cure it); see DESIGN.md §12 for the exact lattice. The SCOPE
// experiment (internal/experiment, recoverylab -scope) validates the
// predictions against the seeded registry and against dynamic per-rung
// probes of every mechanism.
package recoveryscope
