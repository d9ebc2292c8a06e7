package cache

import (
	"fmt"
	"testing"

	"faultstudy/internal/simenv"
)

func BenchmarkSnapshotRestore(b *testing.B) {
	srv := New(simenv.New(1, simenv.WithDiskBytes(1<<30), simenv.WithMaxFileSize(1<<28)), nil, Config{})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < defaultCapacity; i++ {
		if err := srv.Set(fmt.Sprintf("key%02d", i), fmt.Sprintf("value for item %d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := srv.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		srv.Stop()
		if err := srv.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}
