package experiment

import (
	"strings"
	"testing"

	"faultstudy/internal/apps/cache"
	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
)

// BenchmarkBuildScenario measures building one application and its scenario,
// done once per ladder run, for a representative mechanism of each
// namespace (httpd and cache pick ones with long repeated-request workloads).
func BenchmarkBuildScenario(b *testing.B) {
	for _, mech := range []string{
		httpd.MechMemoryLeakHup,
		sqldb.MechIndexUpdateScan,
		desktop.MechTasklistTab,
		cache.MechConnFDLeak,
	} {
		ns, _, _ := strings.Cut(mech, "/")
		b.Run(ns, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := BuildScenario(mech, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
