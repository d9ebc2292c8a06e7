package supervise

import (
	"sync"
	"testing"

	"faultstudy/internal/apps/httpd"
)

// TestConcurrentSupervisorsShareNothing is the parallel engine's shard-safety
// contract for this package: one supervisor per goroutine, each over its own
// application and environment, running simultaneously. Under -race this
// proves a shard's supervisor touches no package-level mutable state — the
// property that lets internal/experiment run one supervised shard per worker
// without locks. Each seed's report must also match what a serial run of the
// same seed produces.
func TestConcurrentSupervisorsShareNothing(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}

	run := func(seed int64) string {
		srv, sc := httpdUnder(t, httpd.MechClientAbort, seed)
		sc.Stage()
		sup := New(srv, Config{Seed: seed, GrowResources: true})
		rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return ""
		}
		return rep.String()
	}

	// Serial pass first: the ground truth per seed.
	want := make([]string, len(seeds))
	for i, seed := range seeds {
		want[i] = run(seed)
	}

	// Concurrent pass: all seeds at once, twice each to double the overlap.
	got := make([]string, len(seeds))
	extra := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			got[i] = run(seed)
		}(i, seed)
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			extra[i] = run(seed)
		}(i, seed)
	}
	wg.Wait()

	for i, seed := range seeds {
		if got[i] != want[i] || extra[i] != want[i] {
			t.Errorf("seed %d: concurrent report differs from serial:\n--- serial\n%s--- concurrent\n%s",
				seed, want[i], got[i])
		}
	}
}
