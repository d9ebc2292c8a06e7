package workload

import (
	"reflect"
	"sync"
	"testing"
)

// countingHook is a mutex-guarded Hook, the concurrency discipline a hook
// shared across generator goroutines must provide (the generators themselves
// never synchronize — the Hook doc makes sharing the hook's problem).
type countingHook struct {
	mu     sync.Mutex
	counts map[string]int
}

func (h *countingHook) Generated(stream, category string) {
	h.mu.Lock()
	h.counts[stream+"/"+category]++
	h.mu.Unlock()
}

// TestGeneratorsConcurrentWithSharedHook runs all three observed generators
// simultaneously against one shared hook. Under -race this pins the parallel
// engine's workload-layer contract: generators share no package-level state,
// so distinct shards may generate concurrently, and a properly locked shared
// hook sees every item exactly once. The generated streams must equal their
// serial counterparts item for item.
func TestGeneratorsConcurrentWithSharedHook(t *testing.T) {
	const n = 400
	wantHTTP := HTTPRequests(7, DefaultHTTPMix(), n, nil)
	wantSQL := SQLStatements(7, n, nil)
	wantEvents := DesktopEvents(7, n, nil)

	hook := &countingHook{counts: make(map[string]int)}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		mismatch  []string
		addErr    = func(s string) { mu.Lock(); mismatch = append(mismatch, s); mu.Unlock() }
		totalWant = 0
	)

	for g := 0; g < 4; g++ {
		wg.Add(3)
		totalWant += 3 * n
		go func() {
			defer wg.Done()
			if got := HTTPRequests(7, DefaultHTTPMix(), n, hook); !reflect.DeepEqual(got, wantHTTP) {
				addErr("http stream diverged from serial generation")
			}
		}()
		go func() {
			defer wg.Done()
			if got := SQLStatements(7, n, hook); !reflect.DeepEqual(got, wantSQL) {
				addErr("sql stream diverged from serial generation")
			}
		}()
		go func() {
			defer wg.Done()
			if got := DesktopEvents(7, n, hook); !reflect.DeepEqual(got, wantEvents) {
				addErr("desktop stream diverged from serial generation")
			}
		}()
	}
	wg.Wait()

	for _, m := range mismatch {
		t.Error(m)
	}
	total := 0
	for _, c := range hook.counts {
		total += c
	}
	if total != totalWant {
		t.Errorf("shared hook saw %d items, want %d", total, totalWant)
	}
}
