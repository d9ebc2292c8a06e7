package dedup

import (
	"fmt"
	"testing"
	"time"

	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// benchReports builds n reports: half distinct, half duplicates of the first
// half.
func benchReports(n int) []*report.Report {
	t0 := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]*report.Report, 0, n)
	for i := 0; i < n/2; i++ {
		text := fmt.Sprintf(
			"the server crashes when operation %d is issued against module %d; "+
				"the trace ends in frame f%d and the failure is deterministic on every platform", i, i%7, i%13)
		out = append(out, &report.Report{
			ID: fmt.Sprintf("R-%d", i), App: taxonomy.AppApache,
			Synopsis:    fmt.Sprintf("crash on operation %d in module %d", i, i%7),
			Description: text, Filed: t0.AddDate(0, 0, i),
		})
	}
	for i := 0; i < n-n/2; i++ {
		orig := out[i%(n/2)]
		out = append(out, &report.Report{
			ID: fmt.Sprintf("D-%d", i), App: taxonomy.AppApache,
			Synopsis:    orig.Synopsis,
			Description: "same as the earlier report: " + orig.Description,
			Filed:       orig.Filed.AddDate(0, 1, 0),
		})
	}
	return out
}

func BenchmarkMark500(b *testing.B) {
	reports := benchReports(500)
	b.ReportAllocs()
	b.ResetTimer()
	var marked int
	for i := 0; i < b.N; i++ {
		marked = Mark(reports)
	}
	b.ReportMetric(float64(marked), "duplicates")
}

func BenchmarkSimilarity(b *testing.B) {
	a := "the server dies with a segfault when the submitted url is very long, hash overflow in uri processing"
	c := "server dies with a segfault when the submitted url is very long; looks like hash overflow in the uri code"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = similarity(a, c)
	}
}

func BenchmarkShingles(b *testing.B) {
	text := benchReports(2)[0].Text()
	var in interner
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = in.shingles(text)
	}
}
