// Package snapwire is the binary codec behind the lab applications'
// checkpoints (recovery.Application's Snapshot and Restore). A snapshot is
// one tag byte naming the application, then the application's fields in a
// fixed order: integers as 8-byte little-endian words, booleans as one byte,
// strings and element counts behind a 4-byte little-endian length.
//
// The Decoder checks every length against the bytes that remain before it
// allocates, and it latches the first error: after a failure every read
// returns a zero value, so an application's decode function reads straight
// through and asks Finish once whether the bytes were whole. Arbitrary
// input yields an error, never a panic.
//
// Snapshot bytes never leave memory: no report, trace, metric, warehouse
// record or simulated-disk file holds them. So the format carries no version
// and no checksum, and map entries go out in iteration order: two snapshots
// of equal state may differ in bytes, but they decode to equal state.
package snapwire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Application tags, the first byte of every snapshot, so one application's
// snapshot never restores into another.
const (
	// TagHTTPD marks an httpd.Server snapshot.
	TagHTTPD byte = 'H'
	// TagSQLDB marks a sqldb.Server snapshot.
	TagSQLDB byte = 'S'
	// TagCache marks a cache.Server snapshot.
	TagCache byte = 'C'
	// TagDesktop marks a desktop.Desktop snapshot.
	TagDesktop byte = 'D'
)

// ErrMalformed wraps every decoding failure.
var ErrMalformed = errors.New("snapwire: malformed snapshot")

// Encoder appends one snapshot's fields to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a snapshot with the application's tag byte.
func NewEncoder(tag byte) Encoder {
	return Encoder{buf: append(make([]byte, 0, 256), tag)}
}

// Int appends a signed integer.
func (e *Encoder) Int(v int64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }

// Uint appends an unsigned integer.
func (e *Encoder) Uint(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Bool appends a boolean as one byte, 0 or 1.
func (e *Encoder) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

// Len appends an element count; the decoder reads it back with Len.
func (e *Encoder) Len(n int) { e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(n)) }

// Str appends a length-prefixed string, byte for byte.
func (e *Encoder) Str(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

// Strs appends a counted list of strings.
func (e *Encoder) Strs(ss []string) {
	e.Len(len(ss))
	for _, s := range ss {
		e.Str(s)
	}
}

// StrMap appends a counted string map, entries in iteration order.
func (e *Encoder) StrMap(m map[string]string) {
	e.Len(len(m))
	for k, v := range m {
		e.Str(k)
		e.Str(v)
	}
}

// Bytes returns the encoded snapshot.
func (e *Encoder) Bytes() []byte { return e.buf }

// Decoder reads one snapshot's fields back in the order they were encoded.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder starts reading b, which must open with tag.
func NewDecoder(tag byte, b []byte) Decoder {
	d := Decoder{b: b, off: 1}
	if len(b) == 0 || b[0] != tag {
		d.off = 0
		d.Fail(fmt.Sprintf("want tag %q", tag))
	}
	return d
}

// Fail latches a decoding error unless one is already latched. Application
// decoders call it for semantic checks (a column count, a named index).
func (d *Decoder) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, d.off)
	}
}

// take returns the next n bytes, or nil after latching an error when fewer
// remain.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.off {
		d.Fail(fmt.Sprintf("%s needs %d bytes, %d remain", what, n, len(d.b)-d.off))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// Uint reads an unsigned integer.
func (d *Decoder) Uint() uint64 {
	if p := d.take(8, "integer"); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Int reads a signed integer.
func (d *Decoder) Int() int64 { return int64(d.Uint()) }

// Bool reads a boolean; any byte but 0 or 1 is malformed.
func (d *Decoder) Bool() bool {
	p := d.take(1, "bool")
	if p == nil {
		return false
	}
	if p[0] > 1 {
		d.Fail(fmt.Sprintf("bool byte %d", p[0]))
	}
	return p[0] == 1
}

// Len reads an element count whose elements each take at least minSize
// bytes (minSize ≥ 1), rejecting a count the remaining bytes cannot hold
// before the caller allocates for it.
func (d *Decoder) Len(minSize int) int {
	p := d.take(4, "length")
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > (len(d.b)-d.off)/minSize {
		d.Fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, len(d.b)-d.off))
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.take(d.Len(1), "string")) }

// Strs reads a list written by Encoder.Strs; an empty list reads as nil.
func (d *Decoder) Strs() []string {
	n := d.Len(4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.Str()
	}
	return ss
}

// StrMap reads a map written by Encoder.StrMap; the result is never nil.
func (d *Decoder) StrMap() map[string]string {
	n := d.Len(8) // an entry is at least two empty strings
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.Str()
		m[k] = d.Str()
	}
	return m
}

// Finish reports the first latched error, or a malformed-snapshot error if
// bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail(fmt.Sprintf("%d trailing bytes", len(d.b)-d.off))
	}
	return d.err
}
