package corpus

import (
	"strings"
	"testing"

	"faultstudy/internal/taxonomy"
)

// Table 1-3 oracle counts from the paper.
var paperCounts = map[taxonomy.Application]map[taxonomy.FaultClass]int{
	taxonomy.AppApache: {
		taxonomy.ClassEnvIndependent:           36,
		taxonomy.ClassEnvDependentNonTransient: 7,
		taxonomy.ClassEnvDependentTransient:    7,
	},
	taxonomy.AppGnome: {
		taxonomy.ClassEnvIndependent:           39,
		taxonomy.ClassEnvDependentNonTransient: 3,
		taxonomy.ClassEnvDependentTransient:    3,
	},
	taxonomy.AppMySQL: {
		taxonomy.ClassEnvIndependent:           38,
		taxonomy.ClassEnvDependentNonTransient: 4,
		taxonomy.ClassEnvDependentTransient:    2,
	},
}

// countByClass tallies faults per class.
func countByClass(faults []*Fault) map[taxonomy.FaultClass]int {
	out := make(map[taxonomy.FaultClass]int, 3)
	for _, f := range faults {
		out[f.Class]++
	}
	return out
}

func TestTableCounts(t *testing.T) {
	for app, want := range paperCounts {
		got := countByClass(ByApp(app))
		for class, n := range want {
			if got[class] != n {
				t.Errorf("%s %s: %d faults, paper says %d", app, class.Short(), got[class], n)
			}
		}
	}
}

func TestTotals(t *testing.T) {
	if n := len(Apache()); n != 50 {
		t.Errorf("Apache corpus has %d faults, want 50", n)
	}
	if n := len(Gnome()); n != 45 {
		t.Errorf("GNOME corpus has %d faults, want 45", n)
	}
	if n := len(MySQL()); n != 44 {
		t.Errorf("MySQL corpus has %d faults, want 44", n)
	}
	if n := len(All()); n != 139 {
		t.Errorf("corpus has %d faults, want 139", n)
	}
}

func TestAggregateDiscussionNumbers(t *testing.T) {
	// §5.4: of the 139 bugs, 14 are EDN (10%) and 12 are EDT (9%).
	counts := countByClass(All())
	if counts[taxonomy.ClassEnvDependentNonTransient] != 14 {
		t.Errorf("EDN total = %d, want 14", counts[taxonomy.ClassEnvDependentNonTransient])
	}
	if counts[taxonomy.ClassEnvDependentTransient] != 12 {
		t.Errorf("EDT total = %d, want 12", counts[taxonomy.ClassEnvDependentTransient])
	}
	if counts[taxonomy.ClassEnvIndependent] != 113 {
		t.Errorf("EI total = %d, want 113", counts[taxonomy.ClassEnvIndependent])
	}
}

func TestEIShareRange(t *testing.T) {
	// §1/§8: 72-87% of each application's faults are environment-independent.
	for _, app := range taxonomy.Applications() {
		faults := ByApp(app)
		counts := countByClass(faults)
		share := float64(counts[taxonomy.ClassEnvIndependent]) / float64(len(faults))
		if share < 0.72 || share > 0.87 {
			t.Errorf("%s EI share = %.2f, want within [0.72, 0.87]", app, share)
		}
	}
}

func TestUniqueIDs(t *testing.T) {
	seen := make(map[string]bool)
	for _, f := range All() {
		if seen[f.ID] {
			t.Errorf("duplicate fault ID %s", f.ID)
		}
		seen[f.ID] = true
	}
}

func TestValidation(t *testing.T) {
	for _, f := range All() {
		if err := validateSet([]*Fault{f}); err != nil {
			t.Errorf("fault %s: %v", f.ID, err)
		}
		if f.Synopsis == "" || f.Description == "" {
			t.Errorf("fault %s has empty text", f.ID)
		}
		if f.HowToRepeat == "" {
			t.Errorf("fault %s has no How-To-Repeat", f.ID)
		}
		r := f.Report()
		if err := r.Validate(); err != nil {
			t.Errorf("fault %s report: %v", f.ID, err)
		}
		if !r.Qualifies() {
			t.Errorf("fault %s report does not meet the study bar", f.ID)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	// The synthesized records must be identical across calls.
	a := Apache()
	b := Apache()
	if len(a) != len(b) {
		t.Fatal("Apache() length varies")
	}
	for i := range a {
		if a[i] != b[i] { // memoized: same pointers
			t.Fatalf("Apache() not memoized at %d", i)
		}
	}
	// Rebuild from scratch and compare content.
	x := buildApache()
	y := buildApache()
	for i := range x {
		if x[i].ID != y[i].ID || x[i].Synopsis != y[i].Synopsis || x[i].Release != y[i].Release || !x[i].Filed.Equal(y[i].Filed) {
			t.Fatalf("buildApache not deterministic at %d: %s vs %s", i, x[i].ID, y[i].ID)
		}
	}
}

func TestApacheReleaseDistribution(t *testing.T) {
	// Figure 1 shape: totals grow with newer releases; EI share roughly
	// constant (each release majority EI).
	byRel := make(map[string]map[taxonomy.FaultClass]int)
	order := []string{"1.2.6", "1.3.0", "1.3.1", "1.3.2", "1.3.3", "1.3.4"}
	for _, f := range Apache() {
		if byRel[f.Release] == nil {
			byRel[f.Release] = make(map[taxonomy.FaultClass]int)
		}
		byRel[f.Release][f.Class]++
	}
	if len(byRel) != len(order) {
		t.Fatalf("releases = %d, want %d", len(byRel), len(order))
	}
	prevTotal := 0
	for _, rel := range order {
		counts := byRel[rel]
		total := counts[taxonomy.ClassEnvIndependent] + counts[taxonomy.ClassEnvDependentNonTransient] + counts[taxonomy.ClassEnvDependentTransient]
		if total < prevTotal {
			t.Errorf("release %s total %d < previous %d; totals should grow", rel, total, prevTotal)
		}
		prevTotal = total
		if 2*counts[taxonomy.ClassEnvIndependent] < total {
			t.Errorf("release %s: EI %d not a majority of %d", rel, counts[taxonomy.ClassEnvIndependent], total)
		}
	}
}

func TestMySQLLastReleaseSmall(t *testing.T) {
	// Figure 3: the last release has substantially fewer faults because it is
	// very new.
	counts := make(map[string]int)
	for _, f := range MySQL() {
		counts[f.Release]++
	}
	last := counts["3.23.2"]
	prev := counts["3.22.29"]
	if last >= prev/2 {
		t.Errorf("last release has %d faults vs %d before; want a substantial drop", last, prev)
	}
}

func TestGnomeTimeDistributionDips(t *testing.T) {
	// Figure 2: report volume decreases for a short interval before
	// increasing again.
	buckets := make(map[string]int)
	for _, f := range Gnome() {
		buckets[f.Filed.Format("2006-01")]++
	}
	if len(buckets) < 4 {
		t.Fatalf("GNOME reports span %d months, want >= 4 buckets", len(buckets))
	}
	months := []string{"1998-10", "1999-01", "1999-04", "1999-07", "1999-10"}
	var series []int
	for _, m := range months {
		series = append(series, buckets[m])
	}
	dipped := false
	for i := 1; i < len(series)-1; i++ {
		if series[i] < series[i-1] && series[i+1] > series[i] {
			dipped = true
		}
	}
	if !dipped {
		t.Errorf("GNOME series %v shows no dip-then-rise", series)
	}
}

func TestMechanismNamespaces(t *testing.T) {
	prefixes := map[taxonomy.Application]string{
		taxonomy.AppApache: "httpd/",
		taxonomy.AppGnome:  "desktop/",
		taxonomy.AppMySQL:  "sqldb/",
	}
	for _, f := range All() {
		if !strings.HasPrefix(f.Mechanism, prefixes[f.App]) {
			t.Errorf("fault %s mechanism %q lacks prefix %q", f.ID, f.Mechanism, prefixes[f.App])
		}
	}
}

func TestFiledDatesOrderedWithinRelease(t *testing.T) {
	for _, f := range All() {
		if f.Filed.Year() < 1998 || f.Filed.Year() > 1999 {
			t.Errorf("fault %s filed %v outside the study window", f.ID, f.Filed)
		}
	}
}
