package simenv

import "testing"

// BenchmarkEnvReroll measures a reroll that no draw follows — the common case
// on the recovery ladder, where every rung rerolls but few runs race.
func BenchmarkEnvReroll(b *testing.B) {
	env := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Reroll()
	}
}

var envSink *Env

// BenchmarkNew measures building an environment, done once per ladder run.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		envSink = New(int64(i))
	}
}
