package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 8, 64} {
		if got := Workers(n); got != n {
			t.Errorf("Workers(%d) = %d, want %d", n, got, n)
		}
	}
}

// TestForEachRunsEveryShard checks that every shard index runs exactly once
// at every worker count, including counts above the shard count.
func TestForEachRunsEveryShard(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const shards = 37
		var counts [shards]int64
		err := ForEach(workers, shards, func(i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroShards(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called with zero shards")
	}
}

// TestForEachFirstErrorInShardOrder checks that the reported error is the
// lowest-index failure, not the first to complete — scheduling must not leak
// into results.
func TestForEachFirstErrorInShardOrder(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4} {
		ran := int64(0)
		err := ForEach(workers, 16, func(i int) error {
			atomic.AddInt64(&ran, 1)
			switch i {
			case 3:
				return errLow
			case 11:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want shard 3's error", workers, err)
		}
		if ran != 16 {
			t.Errorf("workers=%d: %d shards ran, want all 16 despite errors", workers, ran)
		}
	}
}

// TestForEachPanicBecomesError checks the pool survives a panicking shard.
func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 8, func(i int) error {
			if i == 5 {
				panic("boom")
			}
			return nil
		})
		if err == nil || err.Error() != "parallel: shard 5 panicked: boom" {
			t.Errorf("workers=%d: err = %v, want shard-5 panic error", workers, err)
		}
	}
}

// TestMapOrderedWorkerInvariance is the package's core contract: results are
// index-addressed and identical at every worker count.
func TestMapOrderedWorkerInvariance(t *testing.T) {
	want, err := MapOrdered(1, 64, func(i int) (string, error) {
		return fmt.Sprintf("shard-%d:%d", i, Derive(99, uint64(i))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		got, err := MapOrdered(workers, 64, func(i int) (string, error) {
			return fmt.Sprintf("shard-%d:%d", i, Derive(99, uint64(i))), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// splitMix64 is the reference SplitMix64 stepper Derive jumps ahead in.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// TestDeriveMatchesStepper pins Derive's jump-ahead against the reference
// stepper: Derive(root, i) must be the i-th output of SplitMix64(root).
func TestDeriveMatchesStepper(t *testing.T) {
	for _, root := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 40)} {
		sm := &splitMix64{state: uint64(root)}
		for i := uint64(0); i < 100; i++ {
			want := int64(sm.next())
			if got := Derive(root, i); got != want {
				t.Fatalf("Derive(%d, %d) = %d, want stepper output %d", root, i, got, want)
			}
		}
	}
}

// TestDeriveSpreads is a cheap statistical sanity check: neighbouring shard
// indices and neighbouring roots must not produce clustered seeds.
func TestDeriveSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for root := int64(0); root < 32; root++ {
		for i := uint64(0); i < 32; i++ {
			s := Derive(root, i)
			if seen[s] {
				t.Fatalf("collision at root=%d index=%d seed=%d", root, i, s)
			}
			seen[s] = true
		}
	}
	// All 1024 distinct; also check bit diffusion between adjacent indices.
	a, b := Derive(7, 0), Derive(7, 1)
	if diff := popcount(uint64(a ^ b)); diff < 16 {
		t.Errorf("adjacent shard seeds differ in only %d bits", diff)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
