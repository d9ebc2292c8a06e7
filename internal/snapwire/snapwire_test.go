package snapwire

import (
	"errors"
	"maps"
	"math"
	"slices"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(TagCache)
	e.Int(-42)
	e.Int(math.MinInt64)
	e.Uint(math.MaxUint64)
	e.Bool(true)
	e.Bool(false)
	e.Str("")
	e.Str("\xff\xfe not UTF-8")
	e.Strs([]string{})
	e.Strs([]string{"a", ""})
	e.StrMap(nil)
	e.StrMap(map[string]string{"k": "v", "": "e"})
	e.Len(3)

	d := NewDecoder(TagCache, e.Bytes())
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Int(); got != math.MinInt64 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Uint(); got != math.MaxUint64 {
		t.Errorf("Uint = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool pair did not read back as true, false")
	}
	if got := d.Str(); got != "" {
		t.Errorf("Str = %q", got)
	}
	// Invalid UTF-8 survives byte for byte (encoding/json would rewrite it).
	if got := d.Str(); got != "\xff\xfe not UTF-8" {
		t.Errorf("Str = %q", got)
	}
	// An empty list reads as nil, a map never does.
	if got := d.Strs(); got != nil {
		t.Errorf("empty Strs = %#v, want nil", got)
	}
	if got := d.Strs(); !slices.Equal(got, []string{"a", ""}) {
		t.Errorf("Strs = %q", got)
	}
	if got := d.StrMap(); got == nil || len(got) != 0 {
		t.Errorf("empty StrMap = %#v, want an empty map", got)
	}
	if got := d.StrMap(); !maps.Equal(got, map[string]string{"k": "v", "": "e"}) {
		t.Errorf("StrMap = %q", got)
	}
	if err := d.Finish(); err == nil {
		t.Error("Finish ignored the unread count")
	}
}

func TestDecoderRejects(t *testing.T) {
	valid := func() []byte {
		e := NewEncoder(TagSQLDB)
		e.Str("abc")
		e.Bool(true)
		return e.Bytes()
	}
	read := func(d *Decoder) error {
		d.Str()
		d.Bool()
		return d.Finish()
	}
	if d := NewDecoder(TagSQLDB, valid()); read(&d) != nil {
		t.Fatalf("valid snapshot rejected: %v", read(&d))
	}
	badBool := valid()
	badBool[len(badBool)-1] = 2
	hugeString := valid()
	hugeString[1] = 0xff
	for name, b := range map[string][]byte{
		"empty":       nil,
		"wrong tag":   append([]byte{TagHTTPD}, valid()[1:]...),
		"truncated":   valid()[:len(valid())-2],
		"trailing":    append(valid(), 0),
		"bad bool":    badBool,
		"huge string": hugeString,
		"not binary":  []byte("not json"),
	} {
		d := NewDecoder(TagSQLDB, b)
		if err := read(&d); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestLenChecksRemainingBytes(t *testing.T) {
	e := NewEncoder(TagDesktop)
	e.Len(3)
	e.Int(1)
	e.Int(2)
	// Three 8-byte elements need 24 bytes; 16 remain.
	d := NewDecoder(TagDesktop, e.Bytes())
	if n := d.Len(8); n != 0 {
		t.Errorf("Len = %d, want 0 after the check fails", n)
	}
	if err := d.Finish(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
	// Reads after a failure return zero values and keep the first error.
	if d.Int() != 0 || d.Str() != "" || d.Bool() {
		t.Error("read after failure returned a non-zero value")
	}
}
