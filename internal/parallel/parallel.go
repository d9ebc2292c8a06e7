// Package parallel is the experiment engine's sharding substrate: a bounded,
// GOMAXPROCS-aware worker pool with ordered result reduction, and
// deterministic per-shard seed streams derived SplitMix64-style from one root
// seed.
//
// The design contract is worker-count invariance: every quantity a shard
// computes may depend only on the shard's index and the root seed — never on
// which worker ran it, when it ran, or what ran before it. Shards write into
// index-addressed slots and derive their randomness through Derive, so
// an experiment sharded over N workers is byte-identical to the same
// experiment run serially. That property is what lets the recovery-matrix and
// soak sweeps run as fast as the hardware allows while keeping the paper's
// reproducibility guarantees (and the repo's golden files) intact.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count request: values below 1 mean "use every
// processor" (GOMAXPROCS), and any positive request is returned as-is —
// oversubscription is legal, the pool simply multiplexes.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every shard i in [0, shards) on a pool of at most
// workers goroutines (normalized by Workers) and waits for all of them.
// Shards are handed out in index order, but completion order is
// unspecified — fn must only write to per-shard state.
//
// Every shard runs even when some fail; the first error in shard order is
// returned, so the reported error does not depend on scheduling. A panicking
// shard is converted into an error rather than crashing the pool.
func ForEach(workers, shards int, fn func(shard int) error) error {
	workers = Workers(workers)
	if workers > shards {
		workers = shards
	}
	if shards <= 0 {
		return nil
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, same semantics.
		var firstErr error
		for i := 0; i < shards; i++ {
			if err := runShard(i, fn); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, shards)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = runShard(i, fn)
			}
		}()
	}
	for i := 0; i < shards; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runShard invokes fn(i) with a panic guard: a panicking shard becomes an
// error attributed to its index instead of taking the whole pool down.
func runShard(i int, fn func(shard int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("parallel: shard %d panicked: %v", i, v)
		}
	}()
	return fn(i)
}

// MapOrdered runs fn over every shard index and returns the results in shard
// order — the ordered-reduction helper the experiment engine builds reports
// from. Results are positionally stable regardless of worker count.
func MapOrdered[T any](workers, shards int, fn func(shard int) (T, error)) ([]T, error) {
	out := make([]T, shards)
	err := ForEach(workers, shards, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
