package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Profile is a decoded pprof profile (runtime/pprof's gzipped profile.proto),
// reduced to what layer attribution needs: each sample's stack as function
// names and its values.
type Profile struct {
	// SampleTypes names each value column as "type/unit", e.g.
	// "cpu/nanoseconds" or "alloc_space/bytes".
	SampleTypes []string
	// Samples holds one entry per distinct stack.
	Samples []Sample
}

// Sample is one profile sample.
type Sample struct {
	// Stack lists function names leaf first, with inlined frames expanded
	// in place (innermost first), as pprof prints them.
	Stack []string
	// Values holds one value per SampleTypes column.
	Values []int64
}

// ValueIndex returns the column of the named sample type ("cpu",
// "alloc_space"), or -1.
func (p *Profile) ValueIndex(typ string) int {
	for i, t := range p.SampleTypes {
		if strings.HasPrefix(t, typ+"/") {
			return i
		}
	}
	return -1
}

// errTruncated reports a protobuf field running past its message.
var errTruncated = errors.New("bench: truncated profile")

// DecodeProfile reads a gzipped (or raw) profile.proto. Only the fields the
// attribution uses are kept: sample types, samples, locations with their
// line (inlining) records, functions, and the string table.
func DecodeProfile(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("bench: read profile: %w", err)
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("bench: gunzip profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("bench: gunzip profile: %w", err)
		}
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types     [][2]uint64 // (type, unit) string indexes
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
		strs      []string
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]uint64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("bench: profile string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &Profile{}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, typ+"/"+unit)
	}
	for _, s := range samples {
		if len(s.values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("bench: profile sample has %d values for %d types", len(s.values), len(p.SampleTypes))
		}
		out := Sample{Values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcNames[fn])
				if err != nil {
					return nil, err
				}
				out.Stack = append(out.Stack, name)
			}
		}
		p.Samples = append(p.Samples, out)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its value: v for varint and fixed-width fields, b for
// length-delimited ones.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("bench: profile wire type %d unsupported", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, which the writer
// emits either one varint per field or packed into one length-delimited
// field.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
