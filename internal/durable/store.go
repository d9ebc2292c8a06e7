package durable

import (
	"errors"
	"fmt"
	"sync"

	"faultstudy/internal/simenv"
)

var (
	// ErrClosed rejects operations on a closed store.
	ErrClosed = errors.New("durable: store is closed")
	// ErrRollbackUnreachable means the requested sequence number lies
	// before the on-disk checkpoint (or after the log's end), so
	// checkpoint-load + replay cannot reconstruct it.
	ErrRollbackUnreachable = errors.New("durable: rollback target not reachable from checkpoint + log")
)

// Options tunes a store.
type Options struct {
	// CheckpointEvery is the number of applied records between automatic
	// checkpoints; 0 picks the default (64), negative disables automatic
	// checkpointing.
	CheckpointEvery int
	// NoFD opens the store without charging a file descriptor — for
	// callers that model descriptor ownership elsewhere.
	NoFD bool
}

// DefaultCheckpointEvery is the automatic checkpoint cadence when Options
// leaves it zero.
const DefaultCheckpointEvery = 64

// Stats counts a store's lifetime activity.
type Stats struct {
	// Appends is the number of records durably applied.
	Appends uint64
	// Checkpoints is the number of checkpoints committed.
	Checkpoints uint64
	// CheckpointFailures counts automatic checkpoints that failed; the
	// store carries on — a checkpoint is an optimization, the WAL is the
	// truth — and retries at the next cadence point.
	CheckpointFailures uint64
	// Repairs counts torn-tail truncations performed after a failed
	// append, before the next one.
	Repairs uint64
}

// RecoveryInfo reports what Open had to do to reach a consistent state.
type RecoveryInfo struct {
	// CheckpointSeq is the sequence number the loaded checkpoint covered
	// (0 when none existed).
	CheckpointSeq uint64
	// Replayed is the number of WAL records replayed on top of the
	// checkpoint.
	Replayed int
	// TornTail is true when the log ended in an incomplete record —
	// the expected crash aftermath.
	TornTail bool
	// Corrupt is true when the log held a checksum or structural failure —
	// detected damage, truncated like a torn tail but never expected from
	// a clean crash.
	Corrupt bool
	// TruncatedBytes is how many damaged trailing log bytes were cut.
	TruncatedBytes int64
	// TmpRemoved is true when a leftover mid-checkpoint temporary file was
	// swept away.
	TmpRemoved bool
}

// Store is a crash-consistent keyed record store over the simulated disk.
// All mutations append a WAL record (synced before acknowledgement) and
// periodic checkpoints bound replay; Open is the recovery path. A Store is
// safe for concurrent use.
type Store struct {
	env   *simenv.Env
	owner string
	opts  Options
	// wal, ckpt and tmp are the store's three files under its directory:
	// the log, the checkpoint, and the checkpoint's write-then-rename
	// temporary.
	wal, ckpt, tmp string

	mu        sync.Mutex
	state     map[string][]byte
	seq       uint64
	ckptSeq   uint64
	walGood   int64 // bytes of known-good WAL prefix
	wounded   bool  // a failed append may have left garbage after walGood
	sinceCkpt int
	fd        simenv.FD
	hasFD     bool
	closed    bool
	stats     Stats
}

// Open builds a store rooted at dir, recovering whatever a previous
// incarnation left behind: it sweeps a mid-checkpoint temporary file, loads
// the checkpoint, replays the WAL on top, and truncates the log at the
// first torn or corrupt record. The returned RecoveryInfo says what was
// found. Open charges one descriptor to owner (unless Options.NoFD) and
// fails with the underlying simenv error when the table is exhausted — the
// study's descriptor-competition condition applies to the durability layer
// like any other.
func Open(env *simenv.Env, owner, dir string, opts Options) (*Store, *RecoveryInfo, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	s := &Store{env: env, owner: owner, opts: opts, state: make(map[string][]byte),
		wal: dir + "/wal.log", ckpt: dir + "/checkpoint.db", tmp: dir + "/checkpoint.tmp"}
	if !opts.NoFD {
		fd, err := env.FDs().Open(owner)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: open %q: %w", dir, err)
		}
		s.fd, s.hasFD = fd, true
	}
	info := &RecoveryInfo{}
	if err := s.recover(info); err != nil {
		s.releaseFD()
		return nil, nil, err
	}
	return s, info, nil
}

// recover is Open's body: checkpoint-load + log-replay + tail repair.
func (s *Store) recover(info *RecoveryInfo) error {
	disk := s.env.Disk()
	if disk.Exists(s.tmp) {
		if err := disk.Remove(s.tmp); err != nil {
			return fmt.Errorf("durable: sweep %q: %w", s.tmp, err)
		}
		info.TmpRemoved = true
	}
	if disk.Exists(s.ckpt) {
		raw, err := disk.ReadAll(s.ckpt)
		if err != nil {
			return fmt.Errorf("durable: read checkpoint: %w", err)
		}
		state, seq, err := ReadCheckpoint(raw)
		if err != nil {
			return fmt.Errorf("durable: checkpoint %q: %w", s.ckpt, err)
		}
		s.state, s.ckptSeq, s.seq = state, seq, seq
		info.CheckpointSeq = seq
	}
	if disk.Exists(s.wal) {
		raw, err := disk.ReadAll(s.wal)
		if err != nil {
			return fmt.Errorf("durable: read wal: %w", err)
		}
		recs, valid, rerr := ReadWAL(raw)
		for _, rec := range recs {
			if rec.Seq <= s.ckptSeq {
				continue // checkpointed before the crash interrupted log truncation
			}
			applyOps(s.state, rec.Ops)
			s.seq = rec.Seq
			info.Replayed++
		}
		if rerr != nil {
			info.TornTail = errors.Is(rerr, ErrTornTail)
			info.Corrupt = errors.Is(rerr, ErrCorrupt)
			info.TruncatedBytes = int64(len(raw) - valid)
			if err := disk.TruncateTo(s.wal, int64(valid)); err != nil {
				return fmt.Errorf("durable: repair wal tail: %w", err)
			}
		}
		s.walGood = int64(valid)
		s.sinceCkpt = int(s.seq - s.ckptSeq)
	}
	return nil
}

func (s *Store) releaseFD() {
	if s.hasFD {
		_ = s.env.FDs().Close(s.fd)
		s.hasFD = false
	}
}

// Apply durably appends one record carrying the batch and, on success,
// applies it to the in-memory state. The record is synced before Apply
// returns nil — an acknowledged batch survives any later crash. On error
// nothing is applied; a partial append is repaired (tail truncated to the
// last acknowledged byte) before the next attempt.
func (s *Store) Apply(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	disk := s.env.Disk()
	if s.wounded {
		if sz, err := disk.Size(s.wal); err == nil && sz > s.walGood {
			if err := disk.TruncateTo(s.wal, s.walGood); err != nil {
				return fmt.Errorf("durable: repair wal tail: %w", err)
			}
			s.stats.Repairs++
		}
		s.wounded = false
	}
	buf := AppendRecord(nil, Record{Seq: s.seq + 1, Ops: ops})
	if err := disk.Write(s.wal, s.owner, buf); err != nil {
		s.wounded = true
		return fmt.Errorf("durable: append: %w", err)
	}
	if err := disk.Sync(s.wal); err != nil {
		s.wounded = true
		return fmt.Errorf("durable: sync: %w", err)
	}
	applyOps(s.state, ops)
	s.seq++
	s.walGood += int64(len(buf))
	s.sinceCkpt++
	s.stats.Appends++
	if s.opts.CheckpointEvery > 0 && s.sinceCkpt >= s.opts.CheckpointEvery {
		if err := s.checkpointLocked(); err != nil {
			// The record is already durable; a failed checkpoint only means
			// replay stays longer. Count it and retry at the next cadence.
			s.stats.CheckpointFailures++
		}
	}
	return nil
}

// Put stores value under key.
func (s *Store) Put(key string, value []byte) error {
	return s.Apply([]Op{{Kind: OpPut, Key: key, Value: value}})
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.state[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Keys returns every key in unspecified order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.state))
	for k := range s.state {
		keys = append(keys, k)
	}
	return keys
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.state)
}

// Seq returns the sequence number of the last acknowledged record.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Stats returns a copy of the lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Checkpoint writes the full state to a temporary file, syncs it, renames
// it over the live checkpoint (the atomic commit point), and truncates the
// WAL. A crash anywhere in between is safe: before the rename the old
// checkpoint + full WAL still reconstruct everything; after it, replay
// skips records the new checkpoint already covers.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	disk := s.env.Disk()
	if disk.Exists(s.tmp) {
		if err := disk.Remove(s.tmp); err != nil {
			return fmt.Errorf("durable: checkpoint sweep: %w", err)
		}
	}
	buf := EncodeCheckpoint(s.state, s.seq)
	if err := disk.Write(s.tmp, s.owner, buf); err != nil {
		return fmt.Errorf("durable: checkpoint write: %w", err)
	}
	if err := disk.Sync(s.tmp); err != nil {
		return fmt.Errorf("durable: checkpoint sync: %w", err)
	}
	if err := disk.Rename(s.tmp, s.ckpt); err != nil {
		return fmt.Errorf("durable: checkpoint commit: %w", err)
	}
	s.ckptSeq = s.seq
	s.sinceCkpt = 0
	s.stats.Checkpoints++
	if disk.Exists(s.wal) {
		if err := disk.Truncate(s.wal); err != nil {
			// The checkpoint committed; stale log records before ckptSeq are
			// skipped at replay, so a failed truncation costs bytes, not
			// correctness.
			return nil
		}
		s.walGood = 0
	}
	return nil
}

// CanRollbackTo reports whether RollbackTo(seq) can succeed: the target
// must lie between the on-disk checkpoint and the last acknowledged record.
func (s *Store) CanRollbackTo(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return seq >= s.ckptSeq && seq <= s.seq
}

// RollbackTo rewinds the store to exactly the state after record seq was
// applied, by re-running recovery (checkpoint-load + replay) up to seq and
// truncating the discarded log suffix. This is the restore/rollback rung's
// real mechanism: the past is reconstructed from durable bytes, not from a
// cached in-memory snapshot.
func (s *Store) RollbackTo(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if seq < s.ckptSeq || seq > s.seq {
		return fmt.Errorf("durable: rollback to %d (checkpoint %d, head %d): %w",
			seq, s.ckptSeq, s.seq, ErrRollbackUnreachable)
	}
	disk := s.env.Disk()
	state := make(map[string][]byte)
	if disk.Exists(s.ckpt) {
		raw, err := disk.ReadAll(s.ckpt)
		if err != nil {
			return fmt.Errorf("durable: rollback read checkpoint: %w", err)
		}
		cstate, _, err := ReadCheckpoint(raw)
		if err != nil {
			return fmt.Errorf("durable: rollback checkpoint: %w", err)
		}
		state = cstate
	}
	var off int64
	if disk.Exists(s.wal) {
		raw, err := disk.ReadAll(s.wal)
		if err != nil {
			return fmt.Errorf("durable: rollback read wal: %w", err)
		}
		recs, _, _ := ReadWAL(raw)
		prev := 0
		for _, rec := range recs {
			end := prev + walHeader + recordPayloadLen(rec)
			if rec.Seq <= seq {
				off = int64(end)
				if rec.Seq > s.ckptSeq {
					applyOps(state, rec.Ops)
				}
			}
			prev = end
		}
		if err := disk.TruncateTo(s.wal, off); err != nil {
			return fmt.Errorf("durable: rollback truncate: %w", err)
		}
	}
	s.state = state
	s.seq = seq
	s.walGood = off
	s.sinceCkpt = int(seq - s.ckptSeq)
	s.wounded = false
	return nil
}

// recordPayloadLen returns the encoded payload length of rec.
func recordPayloadLen(rec Record) int {
	n := minPayload
	for _, op := range rec.Ops {
		n += 5 + len(op.Key)
		if op.Kind == OpPut {
			n += 4 + len(op.Value)
		}
	}
	return n
}

// Close releases the store's descriptor. Closing is crash-equivalent by
// design (crash-only software: stop == kill): every acknowledged record is
// already synced, so there is nothing to flush.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.releaseFD()
}

// Destroy closes the store and deletes its files — application-specific
// reset, the one recovery that deliberately forgets.
func (s *Store) Destroy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.releaseFD()
	disk := s.env.Disk()
	for _, p := range []string{s.wal, s.ckpt, s.tmp} {
		if disk.Exists(p) {
			if err := disk.Remove(p); err != nil {
				return fmt.Errorf("durable: destroy: %w", err)
			}
		}
	}
	return nil
}
