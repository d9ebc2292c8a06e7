package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Seq: 7, Ops: []Op{{Kind: OpPut, Key: "alpha", Value: []byte("one")}}},
		{Seq: 8, Ops: []Op{
			{Kind: OpPut, Key: "beta", Value: []byte("two")},
			{Kind: OpDelete, Key: "alpha"},
		}},
		{Seq: 9, Ops: []Op{{Kind: OpClear}, {Kind: OpPut, Key: "gamma", Value: nil}}},
	}
}

func encodeAll(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

func TestWALRoundTrip(t *testing.T) {
	want := sampleRecords()
	buf := encodeAll(want)
	recs, valid, err := ReadWAL(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if valid != len(buf) {
		t.Fatalf("valid %d, want %d", valid, len(buf))
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	if !bytes.Equal(encodeAll(recs), buf) {
		t.Fatal("re-encoding differs: encoding is not canonical")
	}
}

func TestWALTornTail(t *testing.T) {
	buf := encodeAll(sampleRecords())
	for cut := len(buf) - 1; cut > 0; cut-- {
		recs, valid, err := ReadWAL(buf[:cut])
		if valid > cut {
			t.Fatalf("cut %d: valid %d beyond input", cut, valid)
		}
		if err == nil {
			// A cut exactly at a record boundary reads clean.
			if valid != cut {
				t.Fatalf("cut %d: clean read but valid %d", cut, valid)
			}
			continue
		}
		if !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: untyped error %v", cut, err)
		}
		if !bytes.Equal(encodeAll(recs), buf[:valid]) {
			t.Fatalf("cut %d: clean prefix does not re-encode", cut)
		}
	}
}

func TestWALCorruptionDetected(t *testing.T) {
	buf := encodeAll(sampleRecords())
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x5a
		_, valid, err := ReadWAL(mut)
		if err == nil && valid == len(mut) {
			// The flip must not produce a silently different parse.
			recs, _, _ := ReadWAL(mut)
			if !bytes.Equal(encodeAll(recs), buf) {
				t.Fatalf("flip at %d silently accepted with altered content", i)
			}
		}
		if err != nil && !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
	}
}

func TestWALSeqDiscontinuity(t *testing.T) {
	buf := AppendRecord(nil, Record{Seq: 3, Ops: []Op{{Kind: OpClear}}})
	buf = AppendRecord(buf, Record{Seq: 5, Ops: []Op{{Kind: OpClear}}})
	recs, _, err := ReadWAL(buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap read: %v, want ErrCorrupt", err)
	}
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("kept %d records, want the clean prefix of 1", len(recs))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	state := map[string][]byte{
		"a":     []byte("1"),
		"b/2":   []byte("two"),
		"empty": nil,
	}
	buf := EncodeCheckpoint(state, 42)
	got, seq, err := ReadCheckpoint(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if seq != 42 {
		t.Fatalf("seq %d, want 42", seq)
	}
	if len(got) != len(state) {
		t.Fatalf("%d keys, want %d", len(got), len(state))
	}
	for k, v := range state {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %q: %q, want %q", k, got[k], v)
		}
	}
	if !bytes.Equal(EncodeCheckpoint(got, seq), buf) {
		t.Fatal("checkpoint encoding is not canonical")
	}
}

func TestCheckpointDamageDetected(t *testing.T) {
	buf := EncodeCheckpoint(map[string][]byte{"k": []byte("v"), "l": []byte("w")}, 9)
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xff
		if _, _, err := ReadCheckpoint(mut); err == nil {
			t.Fatalf("flip at %d silently accepted", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
	}
	for cut := len(buf) - 1; cut >= 0; cut-- {
		if _, _, err := ReadCheckpoint(buf[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

// refAppendRecord is the encoder AppendRecord replaced, which built the
// payload in a buffer of its own and then copied it into the frame.
func refAppendRecord(buf []byte, r Record) []byte {
	payload := make([]byte, 0, 16)
	payload = binary.LittleEndian.AppendUint64(payload, r.Seq)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(r.Ops)))
	for _, op := range r.Ops {
		payload = append(payload, byte(op.Kind))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(op.Key)))
		payload = append(payload, op.Key...)
		if op.Kind == OpPut {
			payload = binary.LittleEndian.AppendUint32(payload, uint32(len(op.Value)))
			payload = append(payload, op.Value...)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// TestAppendRecordMatchesReference: the in-place encoder writes the same
// bytes as the reference, after an empty or a non-empty prefix, into a
// buffer that must grow or one with room; with room it allocates nothing.
func TestAppendRecordMatchesReference(t *testing.T) {
	recs := append(sampleRecords(),
		Record{Seq: 1<<64 - 1},
		Record{Seq: 0, Ops: []Op{{Kind: OpPut, Key: "", Value: []byte{}}, {Kind: OpDelete, Key: ""}}},
		Record{Seq: 42, Ops: []Op{{Kind: OpPut, Key: "big", Value: bytes.Repeat([]byte{0xAB}, 70000)}}},
		Record{Seq: 43, Ops: []Op{{Kind: OpDelete, Key: "k", Value: []byte("ignored for deletes")}}},
	)
	for _, prefix := range []string{"", "prefix"} {
		for _, room := range []int{0, 1 << 17} {
			got := append(make([]byte, 0, room), prefix...)
			want := []byte(prefix)
			for _, r := range recs {
				got, want = AppendRecord(got, r), refAppendRecord(want, r)
				if !bytes.Equal(got, want) {
					t.Fatalf("prefix %q, room %d, record seq %d: encodings differ", prefix, room, r.Seq)
				}
			}
		}
	}
	roomy, rec := make([]byte, 0, 1<<10), sampleRecords()[1]
	if n := testing.AllocsPerRun(100, func() { _ = AppendRecord(roomy, rec) }); n != 0 {
		t.Errorf("AppendRecord into a buffer with room allocates %v times, want 0", n)
	}
}
