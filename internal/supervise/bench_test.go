package supervise

import (
	"testing"

	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

var supervisorSink *Supervisor

// BenchmarkSupervisorNew measures building a supervisor, done once per
// supervised ladder run whether or not the run ever backs off.
func BenchmarkSupervisorNew(b *testing.B) {
	env := simenv.New(1)
	srv := httpd.New(env, faultinject.NewSet(), httpd.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		supervisorSink = New(srv, Config{Seed: int64(i), GrowResources: true})
	}
}
