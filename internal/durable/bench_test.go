package durable

import (
	"fmt"
	"testing"

	"faultstudy/internal/simenv"
)

// benchBatch is a one-put batch over a cycling key space of 256 keys, so
// the state stays bounded however long a benchmark runs.
func benchBatch(i int) []Op {
	return []Op{{Kind: OpPut, Key: fmt.Sprintf("k%03d", i%256), Value: []byte("0123456789abcdef0123456789abcdef")}}
}

// BenchmarkApply measures one acknowledged append at the default checkpoint
// cadence: the WAL write and sync, plus every 64th batch's checkpoint.
func BenchmarkApply(b *testing.B) {
	s, _, err := Open(simenv.New(1), "app", "/var/lib/bench", Options{NoFD: true})
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]Op, 256)
	for i := range batches {
		batches[i] = benchBatch(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Apply(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen measures the recovery path: loading a checkpoint of 256 keys
// and replaying a log of n batches written after it.
func BenchmarkOpen(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("replay=%d", n), func(b *testing.B) {
			env := simenv.New(1)
			opts := Options{CheckpointEvery: -1, NoFD: true}
			s, _, err := Open(env, "app", "/var/lib/bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 256; i++ {
				if err := s.Apply(benchBatch(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := s.Apply(benchBatch(i)); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, info, err := Open(env, "app", "/var/lib/bench", opts)
				if err != nil {
					b.Fatal(err)
				}
				if info.Replayed != n {
					b.Fatalf("replayed %d, want %d", info.Replayed, n)
				}
				s.Close()
			}
		})
	}
}
