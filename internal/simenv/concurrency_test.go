package simenv

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentEnvironmentUse hammers every environment component from
// multiple goroutines; run with -race this is the package's thread-safety
// proof.
func TestConcurrentEnvironmentUse(t *testing.T) {
	env := New(99, WithFDLimit(1024), WithProcLimit(1024), WithDiskBytes(1<<24))
	const workers = 8
	const iters = 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				if fd, err := env.FDs().Open(owner); err == nil && i%2 == 0 {
					_ = env.FDs().Close(fd)
				}
				if pid, err := env.Procs().Spawn(owner); err == nil && i%3 == 0 {
					_ = env.Procs().Kill(pid)
				}
				_ = env.Disk().Append("/tmp/"+owner, owner, 16)
				_, _, _ = env.DNS().Lookup("h")
				_ = env.Net().BindPort(1000+w*1000+i, owner)
				_ = env.Sched().Interleave("p", 4)
				_ = env.Entropy().Draw(1)
				env.Advance(time.Millisecond)
				if i%50 == 0 {
					env.ReclaimOwner(owner)
				}
			}
			env.ReclaimOwner(owner)
		}()
	}
	wg.Wait()

	if env.FDs().InUse() < 0 || env.FDs().InUse() > env.FDs().Limit() {
		t.Errorf("fd accounting corrupted: %d", env.FDs().InUse())
	}
	if diskUsed(env.Disk()) > env.Disk().Capacity() {
		t.Errorf("disk accounting corrupted: %d > %d", diskUsed(env.Disk()), env.Disk().Capacity())
	}
}

// TestConcurrentRerollAndInterleave drives one environment's scheduler from
// concurrent goroutines — the path the recovery manager touches while
// applications run. Half the goroutines only reroll, so pending seeds race
// against the draws that apply them; every choice must stay in range. CI
// runs it with -race -count=10.
func TestConcurrentRerollAndInterleave(t *testing.T) {
	env := New(5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if w%2 == 0 {
					env.Reroll()
					continue
				}
				if c := env.Sched().Interleave("x", 8); c < 0 || c >= 8 {
					t.Errorf("Interleave = %d, want [0, 8)", c)
					return
				}
				_ = env.Sched().RaceFires("y", 3)
			}
		}(w)
	}
	wg.Wait()
}
