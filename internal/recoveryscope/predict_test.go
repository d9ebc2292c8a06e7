package recoveryscope

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"faultstudy/internal/faultlint"
	"faultstudy/internal/recovery"
	"faultstudy/internal/taxonomy"
)

// loadFixture loads testdata/scopeapp and analyzes it.
func loadFixture(t *testing.T) *Analysis {
	t.Helper()
	pkg, err := faultlint.LoadDir(token.NewFileSet(), filepath.Join("testdata", "scopeapp"))
	if err != nil {
		t.Fatalf("LoadDir(testdata/scopeapp): %v", err)
	}
	return Analyze([]*faultlint.Package{pkg})
}

func TestComponentMapExtraction(t *testing.T) {
	a := loadFixture(t)
	cm := a.Maps[filepath.Join("testdata", "scopeapp")]
	if cm == nil {
		t.Fatalf("no component map extracted; maps: %v", a.Maps)
	}
	if got, want := strings.Join(cm.Order, ","), "app/core,app/worker,app/cache"; got != want {
		t.Errorf("Order = %s, want %s", got, want)
	}
	if cm.Root != "app/core" {
		t.Errorf("Root = %q, want app/core", cm.Root)
	}
	// The worker subtree is worker+cache; the core subtree is everything.
	if sub := cm.Subtree("app/worker"); len(sub) != 2 || !sub["app/cache"] {
		t.Errorf("Subtree(worker) = %v, want {worker, cache}", sub)
	}
	if sub := cm.Subtree("app/core"); len(sub) != 3 {
		t.Errorf("Subtree(core) = %v, want all three", sub)
	}
	// Kill-hook ownership, including the delegated closeFDs write. Keys are
	// type-qualified: hook writes resolve their receiver struct.
	wantOwner := map[string]string{
		"server.leakBufs":   "app/core",
		"server.fds":        "app/worker",
		"server.jobs":       "app/worker",
		"server.cacheDirty": "app/cache",
	}
	for field, owner := range wantOwner {
		if got := cm.FieldOwner[field]; got != owner {
			t.Errorf("FieldOwner[%s] = %q, want %q", field, got, owner)
		}
	}
	if _, owned := cm.FieldOwner["server.genCount"]; owned {
		t.Errorf("genCount must not be kill-owned")
	}
	if !cm.HookTypes["server"] {
		t.Errorf("HookTypes = %v, want server", cm.HookTypes)
	}
	// Mechanism attribution comes from the componentFor literal.
	if got := cm.MechanismComponent["app/fd-leak"]; got != "app/worker" {
		t.Errorf("MechanismComponent[app/fd-leak] = %q, want app/worker", got)
	}
	if _, ok := cm.MechanismComponent["app/orphan"]; ok {
		t.Errorf("app/orphan must stay unattributed")
	}
}

func TestCallGraphSummaries(t *testing.T) {
	a := loadFixture(t)
	dir := filepath.Join("testdata", "scopeapp")
	open := a.Graph.Funcs[FuncKey{Pkg: dir, Recv: "server", Name: "openScratch"}]
	if open == nil {
		t.Fatalf("openScratch not indexed")
	}
	if !open.Triggers[taxonomy.TriggerFDExhaustion] {
		t.Errorf("openScratch triggers = %v, want FDExhaustion", open.Triggers)
	}
	if !open.Reach.Fields["server.fds"] {
		t.Errorf("openScratch reach = %v, want server.fds", open.Reach.SortedFields())
	}
	// fdLeak inherits both transitively through the call edge.
	leak := a.Graph.Funcs[FuncKey{Pkg: dir, Recv: "server", Name: "fdLeak"}]
	if leak == nil {
		t.Fatalf("fdLeak not indexed")
	}
	if !leak.Triggers[taxonomy.TriggerFDExhaustion] || !leak.Reach.Fields["server.fds"] {
		t.Errorf("fdLeak summary not transitive: triggers=%v reach=%v",
			leak.Triggers, leak.Reach.SortedFields())
	}
	// pureBug reaches nothing environmental.
	pure := a.Graph.Funcs[FuncKey{Pkg: dir, Recv: "server", Name: "pureBug"}]
	if pure == nil || len(pure.Triggers) != 0 {
		t.Errorf("pureBug must have no environment triggers")
	}
}

// siteFor finds the unique prediction speaking for a mechanism.
func siteFor(t *testing.T, a *Analysis, mech string) Prediction {
	t.Helper()
	for _, s := range a.Sites {
		for _, m := range s.Mechanisms {
			if m == mech {
				return s
			}
		}
	}
	t.Fatalf("no site predicts %s; have %d sites", mech, len(a.Sites))
	return Prediction{}
}

func TestPredictions(t *testing.T) {
	a := loadFixture(t)
	cases := []struct {
		mech      string
		class     taxonomy.FaultClass
		rung      recovery.Rung
		component string
		interproc bool
	}{
		{"app/pure-bug", taxonomy.ClassEnvIndependent, recovery.RungRetry, "app/core", false},
		{"app/slow-leak", taxonomy.ClassEnvIndependent, recovery.RungMicroreboot, "app/core", false},
		{"app/fd-leak", taxonomy.ClassEnvDependentNonTransient, recovery.RungMicroreboot, "app/worker", true},
		{"app/disk-full", taxonomy.ClassEnvDependentNonTransient, recovery.RungRestart, "app/core", false},
		{"app/dns-flap", taxonomy.ClassEnvDependentTransient, recovery.RungRetry, "app/worker", false},
		{"app/race-crash", taxonomy.ClassEnvDependentTransient, recovery.RungMicroreboot, "app/cache", false},
		{"app/cross-taint", taxonomy.ClassEnvIndependent, recovery.RungSubtreeReboot, "app/worker", false},
		{"app/ledger-skew", taxonomy.ClassEnvIndependent, recovery.RungRestart, "app/core", false},
		{"app/wild-write", taxonomy.ClassEnvIndependent, recovery.RungRestore, "app/core", false},
		{"app/orphan", taxonomy.ClassEnvIndependent, recovery.RungRestore, "", false},
	}
	for _, tc := range cases {
		s := siteFor(t, a, tc.mech)
		if s.Class != tc.class {
			t.Errorf("%s: class = %s, want %s", tc.mech, s.Class.Short(), tc.class.Short())
		}
		if s.Rung != tc.rung {
			t.Errorf("%s: rung = %s, want %s", tc.mech, s.Rung, tc.rung)
		}
		if s.Component != tc.component {
			t.Errorf("%s: component = %q, want %q", tc.mech, s.Component, tc.component)
		}
		if s.Interprocedural != tc.interproc {
			t.Errorf("%s: interprocedural = %v, want %v", tc.mech, s.Interprocedural, tc.interproc)
		}
	}
}

func TestPredictionDetails(t *testing.T) {
	a := loadFixture(t)

	// The interprocedural class decision names its evidence.
	fd := siteFor(t, a, "app/fd-leak")
	if !strings.Contains(fd.Via, "openScratch") {
		t.Errorf("fd-leak via = %q, want openScratch", fd.Via)
	}
	if got := strings.Join(fd.Releasable, ","); got != "fds" {
		t.Errorf("fd-leak releasable = %q, want fds", got)
	}

	// Liveness flips are not corruption: the race-crash path writes
	// running=false before raising, yet its path taint stays empty.
	race := siteFor(t, a, "app/race-crash")
	if len(race.PathFields) != 0 {
		t.Errorf("race-crash path fields = %v, want none (liveness excluded)", race.PathFields)
	}

	// Cross-component taint widens the blast radius to the worker subtree.
	cross := siteFor(t, a, "app/cross-taint")
	if got := strings.Join(cross.BlastRadius, ","); got != "app/cache,app/worker" {
		t.Errorf("cross-taint blast = %q, want cache+worker", got)
	}

	// Store corruption is recorded per bucket.
	ledger := siteFor(t, a, "app/ledger-skew")
	if got := strings.Join(ledger.PathBuckets, ","); got != "ledger/ops" {
		t.Errorf("ledger-skew buckets = %q, want ledger/ops", got)
	}

	// Sites come out in deterministic file/line order.
	for i := 1; i < len(a.Sites); i++ {
		x, y := a.Sites[i-1], a.Sites[i]
		if x.File > y.File || (x.File == y.File && x.Line > y.Line) {
			t.Fatalf("sites out of order at %d: %s:%d after %s:%d", i, y.File, y.Line, x.File, x.Line)
		}
	}
}

func TestByMechanism(t *testing.T) {
	a := loadFixture(t)
	byMech := a.ByMechanism()
	if len(byMech) != 10 {
		t.Fatalf("ByMechanism: %d mechanisms, want 10", len(byMech))
	}
	fd, ok := byMech["app/fd-leak"]
	if !ok || fd.Sites != 1 || fd.Rung != recovery.RungMicroreboot || !fd.Interprocedural {
		t.Errorf("fd-leak mech prediction = %+v", fd)
	}
	if got := byMech["app/disk-full"]; got.Class != taxonomy.ClassEnvDependentNonTransient || got.Rung != recovery.RungRestart {
		t.Errorf("disk-full mech prediction = %+v", got)
	}
}

func TestDiagnostics(t *testing.T) {
	a := loadFixture(t)
	diags := a.Diagnostics()
	var scope, scopegap int
	for _, d := range diags {
		switch d.Rule {
		case "scope":
			scope++
			if !d.Advisory {
				t.Errorf("scope finding must be advisory: %+v", d)
			}
		case "scopegap":
			scopegap++
			if d.Advisory {
				t.Errorf("scopegap finding must gate: %+v", d)
			}
			if !strings.Contains(d.Message, "app/orphan") {
				t.Errorf("scopegap message = %q, want app/orphan", d.Message)
			}
		default:
			t.Errorf("unexpected rule %q", d.Rule)
		}
	}
	if scope != 10 {
		t.Errorf("scope findings = %d, want 10 (one per site)", scope)
	}
	if scopegap != 1 {
		t.Errorf("scopegap findings = %d, want 1 (the orphan)", scopegap)
	}
}
