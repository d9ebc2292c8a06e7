package obsv

import "testing"

// BenchmarkRegistryCounter measures the hot instrumentation path: a repeat
// lookup of an existing series with pre-sorted labels, then an increment.
func BenchmarkRegistryCounter(b *testing.B) {
	r := NewRegistry()
	ls := L("app", "httpd", "class", "EDT", "rung", "retry")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("lab_recoveries_total", ls...).Inc()
	}
}
