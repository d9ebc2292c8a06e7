package durable

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"faultstudy/internal/simenv"
)

const testDir = "/var/lib/store"

func openTest(t *testing.T, env *simenv.Env, opts Options) (*Store, *RecoveryInfo) {
	t.Helper()
	s, info, err := Open(env, "app", testDir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s, info
}

func TestPutGetReopenReplay(t *testing.T) {
	env := simenv.New(1)
	s, info := openTest(t, env, Options{CheckpointEvery: -1})
	if info.Replayed != 0 || info.CheckpointSeq != 0 {
		t.Fatalf("fresh open recovered something: %+v", info)
	}
	mustPut(t, s, "k1", "v1")
	mustPut(t, s, "k2", "v2")
	if err := s.Apply([]Op{{Kind: OpDelete, Key: "k1"}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got, ok := s.Get("k2"); !ok || string(got) != "v2" {
		t.Fatalf("get k2: %q %v", got, ok)
	}
	s.Close()
	if err := s.Put("late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("put on closed store: %v", err)
	}

	s2, info2 := openTest(t, env, Options{CheckpointEvery: -1})
	if info2.Replayed != 3 {
		t.Fatalf("replayed %d, want 3", info2.Replayed)
	}
	if _, ok := s2.Get("k1"); ok {
		t.Fatal("deleted key resurrected")
	}
	if got, ok := s2.Get("k2"); !ok || string(got) != "v2" {
		t.Fatalf("replayed k2: %q %v", got, ok)
	}
	if s2.Seq() != 3 {
		t.Fatalf("seq %d, want 3", s2.Seq())
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	env := simenv.New(2)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	for i := 0; i < 5; i++ {
		mustPut(t, s, fmt.Sprintf("k%d", i), "v")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mustPut(t, s, "after", "ckpt")
	s.Close()

	s2, info := openTest(t, env, Options{CheckpointEvery: -1})
	if info.CheckpointSeq != 5 {
		t.Fatalf("checkpoint seq %d, want 5", info.CheckpointSeq)
	}
	if info.Replayed != 1 {
		t.Fatalf("replayed %d, want 1 (only the post-checkpoint record)", info.Replayed)
	}
	if s2.Len() != 6 {
		t.Fatalf("len %d, want 6", s2.Len())
	}
}

func TestAutomaticCheckpoint(t *testing.T) {
	env := simenv.New(3)
	s, _ := openTest(t, env, Options{CheckpointEvery: 4})
	for i := 0; i < 9; i++ {
		mustPut(t, s, fmt.Sprintf("k%d", i), "v")
	}
	if got := s.Stats().Checkpoints; got != 2 {
		t.Fatalf("auto checkpoints %d, want 2", got)
	}
	s.Close()
	s2, info := openTest(t, env, Options{CheckpointEvery: 4})
	defer s2.Close()
	if info.CheckpointSeq != 8 {
		t.Fatalf("checkpoint seq %d, want 8", info.CheckpointSeq)
	}
}

// TestKillAtEveryWriteBoundary is the crash matrix in miniature: a scripted
// workload is killed at every disk write boundary (with a torn tail), and
// recovery must preserve every acknowledged batch and detect — never
// silently absorb — whatever the crash damaged.
func TestKillAtEveryWriteBoundary(t *testing.T) {
	script := func(s *Store, acked map[string]string) error {
		steps := []struct {
			key, val string
		}{
			{"a", "1"}, {"b", "2"}, {"a", "3"}, {"c", "4"}, {"d", "5"}, {"b", "6"},
		}
		for i, st := range steps {
			if i == 3 {
				if err := s.Checkpoint(); err != nil {
					return err
				}
			}
			if err := s.Put(st.key, []byte(st.val)); err != nil {
				return err
			}
			acked[st.key] = st.val
		}
		if err := s.Apply([]Op{{Kind: OpDelete, Key: "c"}}); err != nil {
			return err
		}
		delete(acked, "c")
		return nil
	}

	// Dry run counts the workload's write boundaries.
	dry := simenv.New(10)
	s0, _ := openTest(t, dry, Options{CheckpointEvery: -1})
	if err := script(s0, map[string]string{}); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	boundaries := int(dry.Disk().WriteOps())
	if boundaries < 10 {
		t.Fatalf("suspiciously few boundaries: %d", boundaries)
	}

	for b := 0; b < boundaries; b++ {
		for _, tear := range []int64{0, 3} {
			env := simenv.New(10)
			s, _ := openTest(t, env, Options{CheckpointEvery: -1})
			acked := map[string]string{}
			env.Disk().ScheduleCrash(b, tear)
			err := script(s, acked)
			if err == nil {
				t.Fatalf("boundary %d: workload survived its own crash", b)
			}
			if !errors.Is(err, simenv.ErrDiskCrashed) {
				t.Fatalf("boundary %d: %v, want ErrDiskCrashed", b, err)
			}
			s.Close()
			env.Disk().ClearCrash()

			s2, info, oerr := Open(env, "app", testDir, Options{CheckpointEvery: -1})
			if oerr != nil {
				t.Fatalf("boundary %d tear %d: recovery open: %v", b, tear, oerr)
			}
			for k, v := range acked {
				got, ok := s2.Get(k)
				if !ok || string(got) != v {
					t.Fatalf("boundary %d tear %d: acked %q=%q lost (got %q, %v; info %+v)",
						b, tear, k, v, got, ok, info)
				}
			}
			// No undetected garbage: every surviving key must carry a value
			// some prefix of the script produced.
			legal := map[string][]string{
				"a": {"1", "3"}, "b": {"2", "6"}, "c": {"4"}, "d": {"5"},
			}
			for _, k := range s2.Keys() {
				got, _ := s2.Get(k)
				ok := false
				for _, v := range legal[k] {
					if string(got) == v {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("boundary %d tear %d: undetected corruption: %q=%q", b, tear, k, got)
				}
			}
			s2.Close()
		}
	}
}

func TestDiskFullTypedAndResumable(t *testing.T) {
	env := simenv.New(4, simenv.WithDiskBytes(256))
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	var failed bool
	for i := 0; i < 20; i++ {
		err := s.Put(fmt.Sprintf("key%02d", i), []byte("0123456789abcdef"))
		if err != nil {
			if !errors.Is(err, simenv.ErrDiskFull) {
				t.Fatalf("put %d: %v, want ErrDiskFull", i, err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("disk never filled")
	}
	before := s.Len()
	// Heal (the §6.2 grow-the-disk mitigation) and resume.
	if err := env.Disk().SetCapacity(1 << 20); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := s.Put("resumed", []byte("yes")); err != nil {
		t.Fatalf("resumed put: %v", err)
	}
	if s.Len() != before+1 {
		t.Fatalf("len %d, want %d", s.Len(), before+1)
	}
	s.Close()
	s2, _ := openTest(t, env, Options{CheckpointEvery: -1})
	if got, ok := s2.Get("resumed"); !ok || string(got) != "yes" {
		t.Fatalf("resumed key lost: %q %v", got, ok)
	}
}

func TestFDExhaustionTyped(t *testing.T) {
	env := simenv.New(5, simenv.WithFDLimit(3))
	for {
		if _, err := env.FDs().Open("hog"); err != nil {
			break
		}
	}
	_, _, err := Open(env, "app", testDir, Options{})
	if !errors.Is(err, simenv.ErrFDExhausted) {
		t.Fatalf("open under fd exhaustion: %v, want ErrFDExhausted", err)
	}
	env.FDs().ReleaseOwner("hog")
	s, _ := openTest(t, env, Options{})
	s.Close()
}

func TestShortWriteRepaired(t *testing.T) {
	env := simenv.New(6)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	mustPut(t, s, "good", "before")
	env.Disk().ArmShortWrite(4)
	if err := s.Put("short", []byte("doomed")); !errors.Is(err, simenv.ErrShortWrite) {
		t.Fatalf("short put: %v, want ErrShortWrite", err)
	}
	if _, ok := s.Get("short"); ok {
		t.Fatal("failed put applied")
	}
	// The next append repairs the torn tail first.
	mustPut(t, s, "next", "after")
	if s.Stats().Repairs != 1 {
		t.Fatalf("repairs %d, want 1", s.Stats().Repairs)
	}
	s.Close()
	s2, info := openTest(t, env, Options{CheckpointEvery: -1})
	if info.TornTail || info.Corrupt {
		t.Fatalf("damage leaked to recovery: %+v", info)
	}
	if got, ok := s2.Get("next"); !ok || string(got) != "after" {
		t.Fatalf("post-repair record lost: %q %v", got, ok)
	}
}

func TestSyncFailureLeavesStateConsistent(t *testing.T) {
	env := simenv.New(7)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	mustPut(t, s, "k", "v1")
	env.Disk().ArmSyncFail()
	if err := s.Put("k", []byte("v2")); !errors.Is(err, simenv.ErrIOFault) {
		t.Fatalf("put under sync failure: %v, want ErrIOFault", err)
	}
	if got, _ := s.Get("k"); string(got) != "v1" {
		t.Fatalf("unacknowledged write applied: %q", got)
	}
	mustPut(t, s, "k", "v3")
	s.Close()
	s2, _ := openTest(t, env, Options{CheckpointEvery: -1})
	if got, _ := s2.Get("k"); string(got) != "v3" {
		t.Fatalf("recovered %q, want v3", got)
	}
}

func TestCrashBeforeRenameKeepsOldCheckpoint(t *testing.T) {
	env := simenv.New(8)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	mustPut(t, s, "k", "v1")
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	mustPut(t, s, "k", "v2")
	env.Disk().ArmCrashBeforeRename()
	if err := s.Checkpoint(); !errors.Is(err, simenv.ErrDiskCrashed) {
		t.Fatalf("doomed checkpoint: %v, want ErrDiskCrashed", err)
	}
	s.Close()
	env.Disk().ClearCrash()
	s2, info := openTest(t, env, Options{CheckpointEvery: -1})
	if !info.TmpRemoved {
		t.Fatalf("mid-checkpoint temp not swept: %+v", info)
	}
	if info.CheckpointSeq != 1 {
		t.Fatalf("checkpoint seq %d, want the old checkpoint's 1", info.CheckpointSeq)
	}
	if got, _ := s2.Get("k"); string(got) != "v2" {
		t.Fatalf("recovered %q, want v2 from log replay", got)
	}
}

func TestTornWriteDetectedAtRecovery(t *testing.T) {
	env := simenv.New(9)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	mustPut(t, s, "good", "kept")
	env.Disk().ArmTornWrite(5) // device lies: persists 5 bytes, reports success
	mustPut(t, s, "torn", "liar")
	s.Close()
	s2, info := openTest(t, env, Options{CheckpointEvery: -1})
	if !info.TornTail && !info.Corrupt {
		t.Fatalf("silent corruption not detected: %+v", info)
	}
	if got, ok := s2.Get("good"); !ok || string(got) != "kept" {
		t.Fatalf("clean prefix lost: %q %v", got, ok)
	}
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn record served as if intact")
	}
}

func TestRollbackTo(t *testing.T) {
	env := simenv.New(11)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	mustPut(t, s, "a", "1")
	mustPut(t, s, "b", "2")
	mark := s.Seq()
	mustPut(t, s, "a", "3")
	mustPut(t, s, "c", "4")
	if !s.CanRollbackTo(mark) {
		t.Fatal("rollback target unreachable")
	}
	if err := s.RollbackTo(mark); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if got, _ := s.Get("a"); string(got) != "1" {
		t.Fatalf("a=%q, want pre-rollback 1", got)
	}
	if _, ok := s.Get("c"); ok {
		t.Fatal("rolled-back key survived")
	}
	// The discarded suffix is physically gone: reopen replays to the mark.
	mustPut(t, s, "d", "5")
	if s.Seq() != mark+1 {
		t.Fatalf("seq %d, want %d", s.Seq(), mark+1)
	}
	s.Close()
	s2, info := openTest(t, env, Options{CheckpointEvery: -1})
	if info.Replayed != int(mark)+1 {
		t.Fatalf("replayed %d, want %d", info.Replayed, mark+1)
	}
	if _, ok := s2.Get("c"); ok {
		t.Fatal("rolled-back key recovered")
	}

	// A rollback target older than the checkpoint is typed unreachable.
	if err := s2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := s2.RollbackTo(1); !errors.Is(err, ErrRollbackUnreachable) {
		t.Fatalf("pre-checkpoint rollback: %v, want ErrRollbackUnreachable", err)
	}
}

// TestDoubleFaultCrashDuringRecovery crashes the repair write that recovery
// itself performs: the first Open dies mid-repair with a typed error, and a
// second Open after the heal must complete the recovery.
func TestDoubleFaultCrashDuringRecovery(t *testing.T) {
	env := simenv.New(12)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	mustPut(t, s, "k", "acked")
	// Crash at the sync boundary, after the record hit the buffer, tearing
	// the unsynced tail to 2 bytes — a repairable torn record.
	env.Disk().ScheduleCrash(1, 2)
	if err := s.Put("torn", []byte("x")); !errors.Is(err, simenv.ErrDiskCrashed) {
		t.Fatalf("crashing put: %v", err)
	}
	s.Close()
	env.Disk().ClearCrash()

	// Second fault: the recovery's TruncateTo repair crashes too.
	env.Disk().ScheduleCrash(0, 0)
	if _, _, err := Open(env, "app", testDir, Options{CheckpointEvery: -1}); !errors.Is(err, simenv.ErrDiskCrashed) {
		t.Fatalf("recovery under crash: %v, want ErrDiskCrashed", err)
	}
	env.Disk().ClearCrash()

	s2, info, err := Open(env, "app", testDir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "acked" {
		t.Fatalf("acked record lost across double fault: %q %v (info %+v)", got, ok, info)
	}
}

func TestDestroyForgetsEverything(t *testing.T) {
	env := simenv.New(13)
	s, _ := openTest(t, env, Options{})
	mustPut(t, s, "k", "v")
	if err := s.Destroy(); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	s2, info := openTest(t, env, Options{})
	if s2.Len() != 0 || info.Replayed != 0 {
		t.Fatalf("state survived destroy: len %d, %+v", s2.Len(), info)
	}
}

func TestApplyBatchAtomicInReplay(t *testing.T) {
	env := simenv.New(14)
	s, _ := openTest(t, env, Options{CheckpointEvery: -1})
	err := s.Apply([]Op{
		{Kind: OpPut, Key: "x", Value: []byte("1")},
		{Kind: OpPut, Key: "y", Value: []byte("2")},
		{Kind: OpDelete, Key: "x"},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	s.Close()
	s2, info := openTest(t, env, Options{CheckpointEvery: -1})
	if info.Replayed != 1 {
		t.Fatalf("replayed %d, want 1 batch", info.Replayed)
	}
	if _, ok := s2.Get("x"); ok {
		t.Fatal("intra-batch delete not replayed")
	}
	if got, _ := s2.Get("y"); !bytes.Equal(got, []byte("2")) {
		t.Fatalf("y=%q", got)
	}
}

func mustPut(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
}
