// Package warehouse is the resumable experiment-result store: a keyed,
// append-only record file on the real file system, using the same
// length-prefixed, CRC-checksummed, seq-numbered wire format as the
// simulated durable store (internal/durable). The experiment harness writes
// each completed unit of work as soon as it finishes and syncs before
// acknowledging, so killing the harness mid-sweep loses at most the record
// being appended; Open truncates a torn tail and hands back everything that
// was acknowledged, which is what lets `recoverylab -resume` continue a
// sweep from the last durable boundary and reproduce an uninterrupted run
// byte-identically.
package warehouse

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"faultstudy/internal/durable"
)

// Info reports what Open had to do to reach a consistent state.
type Info struct {
	// Records is the number of acknowledged records recovered.
	Records int
	// TruncatedBytes is how many damaged trailing bytes were cut from the
	// file (0 for a clean open).
	TruncatedBytes int64
	// Torn is true when the file ended in an incomplete record — the
	// expected aftermath of a mid-append kill.
	Torn bool
	// Corrupt is true when a checksum or structural failure was detected;
	// like a torn tail it truncates the file, but it is never the result
	// of a clean kill.
	Corrupt bool
}

// Warehouse is a keyed record store over one real file. Writes are
// append-only WAL records (seq-numbered, CRC-checksummed) synced before
// acknowledgement; later records for the same key supersede earlier ones.
// Safe for concurrent use.
type Warehouse struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	state map[string][]byte
	seq   uint64
}

// Open loads (creating if absent) the warehouse file at path, replaying its
// records and truncating at the first torn or corrupt one. The returned
// Info says what recovery found.
func Open(path string) (*Warehouse, *Info, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("warehouse: open %q: %w", path, err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("warehouse: read %q: %w", path, err)
	}
	recs, valid, rerr := durable.ReadWAL(raw)
	info := &Info{Records: len(recs)}
	w := &Warehouse{path: path, f: f, state: make(map[string][]byte, len(recs))}
	for _, rec := range recs {
		for _, op := range rec.Ops {
			switch op.Kind {
			case durable.OpPut:
				w.state[op.Key] = op.Value
			case durable.OpDelete:
				delete(w.state, op.Key)
			case durable.OpClear:
				w.state = make(map[string][]byte)
			}
		}
		w.seq = rec.Seq
	}
	if rerr != nil {
		info.Torn = errors.Is(rerr, durable.ErrTornTail)
		info.Corrupt = errors.Is(rerr, durable.ErrCorrupt)
		info.TruncatedBytes = int64(len(raw) - valid)
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("warehouse: repair %q: %w", path, err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("warehouse: seek %q: %w", path, err)
	}
	return w, info, nil
}

// Put durably stores value under key: the record is appended and fsynced
// before Put returns nil, so an acknowledged record survives a kill of the
// writing process.
func (w *Warehouse) Put(key string, value []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("warehouse: closed")
	}
	buf := durable.AppendRecord(nil, durable.Record{
		Seq: w.seq + 1,
		Ops: []durable.Op{{Kind: durable.OpPut, Key: key, Value: value}},
	})
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("warehouse: append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("warehouse: sync: %w", err)
	}
	w.seq++
	w.state[key] = append([]byte(nil), value...)
	return nil
}

// Get returns the value stored under key.
func (w *Warehouse) Get(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v, ok := w.state[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Close releases the underlying file. Pending records are already synced —
// closing is crash-equivalent by design.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
