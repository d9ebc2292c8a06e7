package traffic

import "testing"

// BenchmarkSchedule measures precomputing one SERVE arm's arrival stream at
// the sweep's defaults: 1,200 users, 2,400 requests, poisson:1ms.
func BenchmarkSchedule(b *testing.B) {
	proc, err := ParseArrivals("poisson:1ms")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(GenConfig{Seed: int64(i), Users: 1200, Requests: 2400, Process: proc}); err != nil {
			b.Fatal(err)
		}
	}
}
