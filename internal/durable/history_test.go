package durable

import (
	"fmt"
	"math/rand"
	"testing"

	"faultstudy/internal/simenv"
)

// The steps of a generated history.
const (
	stepApply = iota
	stepCheckpoint
	stepRollback
	stepReopen
)

// historyStep is one operation of a generated history. A rollback's target
// is drawn at run time from the range the store can reach, so pick holds a
// raw draw rather than a sequence number.
type historyStep struct {
	kind  int
	batch []Op
	pick  uint64
}

// history is a seeded operation sequence over one store, with the store's
// checkpoint cadence.
type history struct {
	every int
	steps []historyStep
}

// genHistory draws a history from seed: Put/Delete/Clear batches mixed with
// explicit checkpoints, rollbacks and reopens, over a small key space so
// overwrites and deletes bite.
func genHistory(seed int64) history {
	rng := rand.New(rand.NewSource(seed))
	h := history{every: []int{-1, 2, 3, 5}[rng.Intn(4)]}
	n := 8 + rng.Intn(24)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case r < 14:
			batch := make([]Op, 1+rng.Intn(3))
			for j := range batch {
				key := fmt.Sprintf("k%d", rng.Intn(6))
				switch rng.Intn(10) {
				case 0:
					batch[j] = Op{Kind: OpClear}
				case 1, 2:
					batch[j] = Op{Kind: OpDelete, Key: key}
				default:
					batch[j] = Op{Kind: OpPut, Key: key, Value: []byte(fmt.Sprintf("v%d-%d", i, rng.Intn(1000)))}
				}
			}
			h.steps = append(h.steps, historyStep{kind: stepApply, batch: batch})
		case r < 16:
			h.steps = append(h.steps, historyStep{kind: stepCheckpoint})
		case r < 18:
			h.steps = append(h.steps, historyStep{kind: stepRollback, pick: uint64(rng.Int63())})
		default:
			h.steps = append(h.steps, historyStep{kind: stepReopen})
		}
	}
	return h
}

// checkHistory plays h against a store on a fresh environment with the disk
// crashing at write boundary crashAt (negative: never), unsynced tails torn
// to tear bytes, and returns the write boundaries the run passed. After
// every step — and after every crash, once a replacement process has
// reopened the store — it holds the store to the reference model: the
// recovered sequence number lies in [acked, acked+1], where acked is the
// last sequence number the store acknowledged, and the state equals
// ModelAt(history, Seq()). A rollback truncates the model's history.
func checkHistory(h history, crashAt int, tear int64) (int64, error) {
	env := simenv.New(1)
	opts := Options{CheckpointEvery: h.every}
	st, _, err := Open(env, "app", testDir, opts)
	if err != nil {
		return 0, err
	}
	if crashAt >= 0 {
		env.Disk().ScheduleCrash(crashAt, tear)
	}
	var model [][]Op // model[i] is the batch acknowledged as sequence i+1
	for i, step := range h.steps {
		acked := st.Seq()
		switch step.kind {
		case stepApply:
			// The batch joins the model before the store sees it, so a
			// crash that preserves the in-flight record is still modelled.
			model = append(model[:acked], step.batch)
			err = st.Apply(step.batch)
		case stepCheckpoint:
			err = st.Checkpoint()
		case stepRollback:
			st.mu.Lock()
			lo := st.ckptSeq
			st.mu.Unlock()
			target := lo + step.pick%(acked-lo+1)
			if err = st.RollbackTo(target); err == nil {
				model = model[:target]
			}
		case stepReopen:
			st.Close()
			st, _, err = Open(env, "app", testDir, opts)
		}
		if env.Disk().Crashed() {
			// Replace the process: drop the handle, clear the crash, recover.
			if st != nil {
				st.Close()
			}
			env.Disk().ClearCrash()
			if st, _, err = Open(env, "app", testDir, opts); err != nil {
				return 0, fmt.Errorf("step %d: recovery: %w", i, err)
			}
			if seq := st.Seq(); seq < acked || seq > acked+1 || seq > uint64(len(model)) {
				return 0, fmt.Errorf("step %d: recovered seq %d outside [%d, %d] (model holds %d)",
					i, seq, acked, acked+1, len(model))
			}
		} else if err != nil {
			return 0, fmt.Errorf("step %d: %w", i, err)
		}
		if !StateEqual(st, ModelAt(model, st.Seq())) {
			return 0, fmt.Errorf("step %d: state at seq %d differs from the model", i, st.Seq())
		}
		model = model[:st.Seq()]
	}
	st.Close()
	return env.Disk().WriteOps(), nil
}

// TestDurableHistories is the store's property test: seeded random
// histories over Apply, Checkpoint, RollbackTo and reopen, each crashed at
// a random write boundary with the unsynced tails dropped or torn.
func TestDurableHistories(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		h := genHistory(seed)
		boundaries, err := checkHistory(h, -1, 0)
		if err != nil {
			t.Fatalf("seed %d, no crash: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(^seed))
		for _, tear := range []int64{0, 3} {
			crashAt := rng.Intn(int(boundaries) + 1)
			if _, err := checkHistory(h, crashAt, tear); err != nil {
				t.Fatalf("seed %d, crash at boundary %d, tear %d: %v", seed, crashAt, tear, err)
			}
		}
	}
}

// FuzzDurableHistory drives checkHistory with fuzzer-chosen histories and
// crash points.
func FuzzDurableHistory(f *testing.F) {
	f.Add(int64(0), uint16(0), false)
	f.Add(int64(7), uint16(13), true)
	f.Add(int64(42), uint16(500), true)
	f.Fuzz(func(t *testing.T, seed int64, crash uint16, torn bool) {
		h := genHistory(seed)
		boundaries, err := checkHistory(h, -1, 0)
		if err != nil {
			t.Fatalf("no crash: %v", err)
		}
		tear := int64(0)
		if torn {
			tear = 3
		}
		crashAt := int(int64(crash) % (boundaries + 1))
		if _, err := checkHistory(h, crashAt, tear); err != nil {
			t.Fatalf("crash at boundary %d, tear %d: %v", crashAt, tear, err)
		}
	})
}
