// Package durable is a keyed record store with an append-only,
// CRC-checksummed write-ahead log and atomic checkpoint files, written
// exclusively through the injectable simenv disk and descriptor layers so
// the study's environment faults (full disk, descriptor exhaustion, torn
// and short writes, crashes at arbitrary write boundaries) damage actual
// bytes. Open recovers by checkpoint-load + log-replay, truncating the log
// at the first torn or corrupt record; applications build real
// restore/rollback on top of RollbackTo.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
)

// Op kinds a WAL record can carry.
const (
	// OpPut stores Value under Key.
	OpPut = OpKind(1)
	// OpDelete removes Key.
	OpDelete = OpKind(2)
	// OpClear removes every key.
	OpClear = OpKind(3)
)

// OpKind discriminates the mutations a WAL record carries.
type OpKind uint8

// Op is one keyed mutation inside a WAL record.
type Op struct {
	// Kind is the mutation kind (OpPut, OpDelete, OpClear).
	Kind OpKind
	// Key is the record key (unused for OpClear).
	Key string
	// Value is the payload for OpPut.
	Value []byte
}

// Record is one WAL entry: a batch of ops applied atomically under one
// sequence number. Replay applies whole records only, so a multi-op
// statement can never be half-recovered.
type Record struct {
	// Seq is the record's sequence number; consecutive records in one log
	// increase by exactly 1.
	Seq uint64
	// Ops is the batch, applied in order.
	Ops []Op
}

var (
	// ErrCorrupt marks bytes that are structurally invalid or fail their
	// checksum — damage that must be detected, never silently accepted.
	ErrCorrupt = errors.New("durable: corrupt record")
	// ErrTornTail marks a log whose final record is incomplete — the
	// expected aftermath of a crash mid-append, repaired by truncation.
	ErrTornTail = errors.New("durable: torn log tail")
)

// Wire-format limits. A reader rejects anything outside them before
// allocating, so hostile input cannot balloon memory.
const (
	// maxPayload bounds one WAL record's encoded payload.
	maxPayload = 1 << 26
	// minPayload is the smallest legal payload: seq (8) + op count (2).
	minPayload = 10
	// walHeader is the per-record frame: length (4) + crc (4).
	walHeader = 8
	// ckptMagic opens every checkpoint file.
	ckptMagic = "FSDCKPT1"
)

// AppendRecord appends r's wire encoding to buf and returns the extended
// slice. The frame is [len u32][crc u32][payload]; the payload is
// [seq u64][nops u16] then per op [kind u8][klen u32][key]([vlen u32][value]
// for puts). All integers are little-endian; the CRC (IEEE) covers the
// payload.
func AppendRecord(buf []byte, r Record) []byte {
	size := 8 + 2
	for _, op := range r.Ops {
		size += 1 + 4 + len(op.Key)
		if op.Kind == OpPut {
			size += 4 + len(op.Value)
		}
	}
	buf = slices.Grow(buf, walHeader+size)
	frame := len(buf)
	buf = append(buf, make([]byte, walHeader)...) // length and CRC, set below
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Ops)))
	for _, op := range r.Ops {
		buf = append(buf, byte(op.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.Key)))
		buf = append(buf, op.Key...)
		if op.Kind == OpPut {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	binary.LittleEndian.PutUint32(buf[frame:], uint32(size))
	binary.LittleEndian.PutUint32(buf[frame+4:], crc32.ChecksumIEEE(buf[frame+walHeader:]))
	return buf
}

// ReadWAL decodes a write-ahead log. It returns every intact record in
// order, the byte length of the clean prefix they occupy, and an error
// describing why decoding stopped short of len(b): ErrTornTail for an
// incomplete final record, ErrCorrupt for a checksum or structural failure.
// A nil error means the whole log was clean. ReadWAL never panics on
// arbitrary input and never silently accepts damaged bytes.
func ReadWAL(b []byte) (recs []Record, valid int, err error) {
	off := 0
	for off < len(b) {
		rem := len(b) - off
		if rem < walHeader {
			return recs, off, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrTornTail, rem, off)
		}
		length := int(binary.LittleEndian.Uint32(b[off:]))
		if length < minPayload || length > maxPayload {
			return recs, off, fmt.Errorf("%w: frame length %d at offset %d", ErrCorrupt, length, off)
		}
		if rem < walHeader+length {
			return recs, off, fmt.Errorf("%w: record needs %d bytes, %d remain at offset %d",
				ErrTornTail, walHeader+length, rem, off)
		}
		sum := binary.LittleEndian.Uint32(b[off+4:])
		payload := b[off+walHeader : off+walHeader+length]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			return recs, off, fmt.Errorf("%w: %v at offset %d", ErrCorrupt, derr, off)
		}
		if n := len(recs); n > 0 && rec.Seq != recs[n-1].Seq+1 {
			return recs, off, fmt.Errorf("%w: sequence %d after %d at offset %d",
				ErrCorrupt, rec.Seq, recs[n-1].Seq, off)
		}
		recs = append(recs, rec)
		off += walHeader + length
	}
	return recs, off, nil
}

// decodePayload decodes one record payload (already checksum-verified).
func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < minPayload {
		return r, fmt.Errorf("payload %d bytes", len(p))
	}
	r.Seq = binary.LittleEndian.Uint64(p)
	nops := int(binary.LittleEndian.Uint16(p[8:]))
	off := minPayload
	r.Ops = make([]Op, 0, nops)
	for i := 0; i < nops; i++ {
		if len(p)-off < 5 {
			return r, fmt.Errorf("op %d header truncated", i)
		}
		kind := OpKind(p[off])
		if kind != OpPut && kind != OpDelete && kind != OpClear {
			return r, fmt.Errorf("op %d kind %d", i, kind)
		}
		klen := int(binary.LittleEndian.Uint32(p[off+1:]))
		off += 5
		if klen < 0 || klen > len(p)-off {
			return r, fmt.Errorf("op %d key length %d", i, klen)
		}
		key := string(p[off : off+klen])
		off += klen
		op := Op{Kind: kind, Key: key}
		if kind == OpPut {
			if len(p)-off < 4 {
				return r, fmt.Errorf("op %d value length truncated", i)
			}
			vlen := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if vlen < 0 || vlen > len(p)-off {
				return r, fmt.Errorf("op %d value length %d", i, vlen)
			}
			op.Value = append([]byte(nil), p[off:off+vlen]...)
			off += vlen
		}
		r.Ops = append(r.Ops, op)
	}
	if off != len(p) {
		return r, fmt.Errorf("%d bytes of payload slack", len(p)-off)
	}
	return r, nil
}

// EncodeCheckpoint serializes a full key-value state plus the sequence
// number it covers. The layout is [magic 8][seq u64][count u32] then per
// entry [klen u32][key][vlen u32][value] in ascending key order, closed by
// a u32 CRC (IEEE) over everything before it. Sorting makes the encoding
// canonical: equal states encode to equal bytes.
func EncodeCheckpoint(state map[string][]byte, seq uint64) []byte {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 0, 32)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(state[k])))
		buf = append(buf, state[k]...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// ReadCheckpoint decodes a checkpoint file. Checkpoints are written
// temp-then-rename, so a reachable checkpoint must be whole: any structural
// damage, slack, ordering violation, or checksum mismatch is ErrCorrupt —
// there is no torn-tail case to repair. Never panics on arbitrary input.
func ReadCheckpoint(b []byte) (state map[string][]byte, seq uint64, err error) {
	const header = len(ckptMagic) + 12
	if len(b) < header+4 {
		return nil, 0, fmt.Errorf("%w: checkpoint %d bytes", ErrCorrupt, len(b))
	}
	if string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, 0, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	body, sumBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sumBytes) {
		return nil, 0, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	seq = binary.LittleEndian.Uint64(b[len(ckptMagic):])
	count := int(binary.LittleEndian.Uint32(b[len(ckptMagic)+8:]))
	off := header
	state = make(map[string][]byte, count)
	prev := ""
	for i := 0; i < count; i++ {
		if len(body)-off < 4 {
			return nil, 0, fmt.Errorf("%w: entry %d key length truncated", ErrCorrupt, i)
		}
		klen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if klen < 0 || klen > len(body)-off {
			return nil, 0, fmt.Errorf("%w: entry %d key length %d", ErrCorrupt, i, klen)
		}
		key := string(body[off : off+klen])
		off += klen
		if i > 0 && key <= prev {
			return nil, 0, fmt.Errorf("%w: entry %d key order violation", ErrCorrupt, i)
		}
		prev = key
		if len(body)-off < 4 {
			return nil, 0, fmt.Errorf("%w: entry %d value length truncated", ErrCorrupt, i)
		}
		vlen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if vlen < 0 || vlen > len(body)-off {
			return nil, 0, fmt.Errorf("%w: entry %d value length %d", ErrCorrupt, i, vlen)
		}
		state[key] = append([]byte(nil), body[off:off+vlen]...)
		off += vlen
	}
	if off != len(body) {
		return nil, 0, fmt.Errorf("%w: %d bytes of checkpoint slack", ErrCorrupt, len(body)-off)
	}
	return state, seq, nil
}

// applyOps applies a record's batch to state in order.
func applyOps(state map[string][]byte, ops []Op) {
	for _, op := range ops {
		switch op.Kind {
		case OpPut:
			state[op.Key] = append([]byte(nil), op.Value...)
		case OpDelete:
			delete(state, op.Key)
		case OpClear:
			for k := range state {
				delete(state, k)
			}
		}
	}
}
