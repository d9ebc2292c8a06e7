package experiment

import (
	"fmt"
	"sort"
	"strings"

	"faultstudy/internal/corpus"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// FigureSeries is a regenerated distribution figure: fault counts per bucket
// (release or time period), stacked by class.
type FigureSeries struct {
	// App is the application.
	App taxonomy.Application
	// Buckets labels the x axis (releases for Apache/MySQL, quarters for
	// GNOME), in order.
	Buckets []string
	// PerClass maps each class to its per-bucket counts.
	PerClass map[taxonomy.FaultClass][]int
}

// Totals returns the per-bucket totals.
func (f *FigureSeries) Totals() []int {
	totals := make([]int, len(f.Buckets))
	for _, counts := range f.PerClass {
		for i, n := range counts {
			totals[i] += n
		}
	}
	return totals
}

// Render draws the figure as an ASCII stacked bar chart.
func (f *FigureSeries) Render() string {
	series := []stats.StackedSeries{
		{Label: "EI", Glyph: '#', Counts: f.PerClass[taxonomy.ClassEnvIndependent]},
		{Label: "EDN", Glyph: 'o', Counts: f.PerClass[taxonomy.ClassEnvDependentNonTransient]},
		{Label: "EDT", Glyph: '+', Counts: f.PerClass[taxonomy.ClassEnvDependentTransient]},
	}
	return fmt.Sprintf("Distribution of faults for %s:\n%s", f.App,
		stats.StackedBars(f.Buckets, series))
}

// Figure1Apache regenerates Figure 1: Apache faults per release, stacked by
// class.
func Figure1Apache() *FigureSeries {
	return byRelease(taxonomy.AppApache, apacheReleaseOrder())
}

// Figure3MySQL regenerates Figure 3: MySQL faults per release.
func Figure3MySQL() *FigureSeries {
	return byRelease(taxonomy.AppMySQL, mysqlReleaseOrder())
}

// Figure2Gnome regenerates Figure 2: GNOME faults over time (quarterly
// buckets), stacked by class.
func Figure2Gnome() *FigureSeries {
	faults := corpus.Gnome()
	bucketOf := func(f *corpus.Fault) string {
		q := (int(f.Filed.Month()) - 1) / 3
		return fmt.Sprintf("%dQ%d", f.Filed.Year(), q+1)
	}
	seen := make(map[string]bool)
	var buckets []string
	for _, f := range faults {
		b := bucketOf(f)
		if !seen[b] {
			seen[b] = true
			buckets = append(buckets, b)
		}
	}
	sort.Strings(buckets)
	fig := newFigure(taxonomy.AppGnome, buckets)
	idx := indexOfBuckets(buckets)
	for _, f := range faults {
		fig.PerClass[f.Class][idx[bucketOf(f)]]++
	}
	return fig
}

func byRelease(app taxonomy.Application, order []string) *FigureSeries {
	fig := newFigure(app, order)
	idx := indexOfBuckets(order)
	for _, f := range corpus.ByApp(app) {
		i, ok := idx[f.Release]
		if !ok {
			continue
		}
		fig.PerClass[f.Class][i]++
	}
	return fig
}

func newFigure(app taxonomy.Application, buckets []string) *FigureSeries {
	fig := &FigureSeries{
		App:      app,
		Buckets:  buckets,
		PerClass: make(map[taxonomy.FaultClass][]int, 3),
	}
	for _, c := range taxonomy.Classes() {
		fig.PerClass[c] = make([]int, len(buckets))
	}
	return fig
}

func indexOfBuckets(buckets []string) map[string]int {
	idx := make(map[string]int, len(buckets))
	for i, b := range buckets {
		idx[b] = i
	}
	return idx
}

// apacheReleaseOrder returns the Apache releases covered by the corpus in
// version order.
func apacheReleaseOrder() []string {
	return releasesOf(taxonomy.AppApache)
}

// mysqlReleaseOrder returns the MySQL releases covered by the corpus in
// version order.
func mysqlReleaseOrder() []string {
	return releasesOf(taxonomy.AppMySQL)
}

func releasesOf(app taxonomy.Application) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range corpus.ByApp(app) {
		if !seen[f.Release] {
			seen[f.Release] = true
			out = append(out, f.Release)
		}
	}
	sort.Slice(out, func(i, j int) bool { return versionLess(out[i], out[j]) })
	return out
}

// versionLess orders dotted version strings numerically.
func versionLess(a, b string) bool {
	as := strings.Split(a, ".")
	bs := strings.Split(b, ".")
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] == bs[i] {
			continue
		}
		var ai, bi int
		fmt.Sscanf(as[i], "%d", &ai)
		fmt.Sscanf(bs[i], "%d", &bi)
		if ai != bi {
			return ai < bi
		}
		return as[i] < bs[i]
	}
	return len(as) < len(bs)
}
