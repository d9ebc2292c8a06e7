package experiment

import (
	"strings"
	"testing"

	"faultstudy/internal/recovery"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
)

func TestSupervisedColumn(t *testing.T) {
	m, err := RunMatrix(recovery.Policy{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m.HasSupervised() {
		t.Fatal("fresh matrix should have no supervised column")
	}
	if err := m.AddSupervisedWorkers(42, supervise.Config{GrowResources: true}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if !m.HasSupervised() {
		t.Fatal("supervised column missing after AddSupervisedWorkers")
	}
	for _, fo := range m.PerFault {
		if fo.Supervised == VerdictNone {
			t.Fatalf("%s has no supervised verdict", fo.FaultID)
		}
	}

	// The supervisor must never lose more than the best bare strategy per
	// class: its ladder includes every bare mechanism plus degraded mode.
	for _, c := range taxonomy.Classes() {
		sup, _ := m.SupervisedRate(c)
		if sup.N == 0 {
			continue
		}
		best := 0
		for _, s := range m.Strategies {
			if r := m.Rate(s, c); r.Hits > best {
				best = r.Hits
			}
		}
		if sup.Hits < best {
			t.Errorf("%s: supervised not-lost %d/%d below best bare strategy %d",
				c, sup.Hits, sup.N, best)
		}
	}

	// The headline structure: EI faults overwhelmingly recur (many lost even
	// under supervision), while transients overwhelmingly survive.
	edt, _ := m.SupervisedRate(taxonomy.ClassEnvDependentTransient)
	if edt.N > 0 && edt.Hits*2 < edt.N {
		t.Errorf("EDT supervised not-lost = %d/%d, want majority", edt.Hits, edt.N)
	}

	if !strings.Contains(m.String(), "supervised") {
		t.Error("matrix rendering missing the supervised column")
	}
}

func TestRunSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{Ops: 120, Faults: 2, Seed: 7}
	run := func() string {
		results, err := RunSoak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 3 {
			t.Fatalf("soak results = %d apps, want 3", len(results))
		}
		for _, r := range results {
			if len(r.Mechanisms) != 2 {
				t.Errorf("%s: %d mechanisms active, want 2", r.App, len(r.Mechanisms))
			}
			if r.Report.OpsTotal < cfg.Ops {
				t.Errorf("%s: %d ops accounted, want >= %d", r.App, r.Report.OpsTotal, cfg.Ops)
			}
			if got := r.Report.OpsOK + r.Report.OpsFailed + r.Report.OpsShed; got != r.Report.OpsTotal {
				t.Errorf("%s: ops don't add up: ok+failed+shed=%d total=%d", r.App, got, r.Report.OpsTotal)
			}
		}
		return RenderSoak(results)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("soak not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, app := range []string{"apache", "gnome", "mysql"} {
		if !strings.Contains(strings.ToLower(a), app) {
			t.Errorf("soak rendering missing %s section", app)
		}
	}
}

func TestVerdictNames(t *testing.T) {
	cases := map[SupervisorVerdict]string{
		VerdictNone:     "-",
		VerdictServed:   "served",
		VerdictDegraded: "degraded",
		VerdictLost:     "lost",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v, want)
		}
	}
}
