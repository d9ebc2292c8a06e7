package warehouse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTest(t *testing.T, path string) (*Warehouse, *Info) {
	t.Helper()
	w, info, err := Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return w, info
}

func TestPutGetReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.whs")
	w, info := openTest(t, path)
	if info.Records != 0 || info.Torn || info.Corrupt {
		t.Fatalf("fresh open info %+v", info)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("arm/%d", i)
		if err := w.Put(key, []byte(fmt.Sprintf("result-%d", i))); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	if err := w.Put("arm/3", []byte("revised")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, info2 := openTest(t, path)
	defer w2.Close()
	if info2.Records != 11 || info2.TruncatedBytes != 0 {
		t.Fatalf("reopen info %+v, want 11 clean records", info2)
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("result-%d", i)
		if i == 3 {
			want = "revised"
		}
		if v, ok := w2.Get(fmt.Sprintf("arm/%d", i)); !ok || !bytes.Equal(v, []byte(want)) {
			t.Fatalf("arm/%d = %q, %v, want %q", i, v, ok, want)
		}
	}
	if _, ok := w2.Get("arm/10"); ok {
		t.Fatal("Get found a key that was never put")
	}
}

// TestTornTailTruncated simulates a kill mid-append: every possible torn
// tail must reopen cleanly with exactly the acknowledged prefix, and the
// repair must leave the file appendable.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.whs")
	w, _ := openTest(t, path)
	boundaries := []int64{0}
	for i := 0; i < 4; i++ {
		if err := w.Put(fmt.Sprintf("arm/%d", i), []byte("payload")); err != nil {
			t.Fatalf("put: %v", err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		boundaries = append(boundaries, st.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	for cut := int64(len(full)) - 1; cut > 0; cut-- {
		torn := filepath.Join(t.TempDir(), "torn.whs")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatalf("write torn copy: %v", err)
		}
		w2, info := openTest(t, torn)
		acked := 0
		for _, b := range boundaries {
			if cut >= b {
				acked++
			}
		}
		acked-- // boundary 0 holds no record
		if info.Records != acked {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, info.Records, acked)
		}
		onBoundary := false
		for _, b := range boundaries {
			if cut == b {
				onBoundary = true
			}
		}
		if onBoundary {
			if info.TruncatedBytes != 0 {
				t.Fatalf("cut %d is a boundary but %d bytes truncated", cut, info.TruncatedBytes)
			}
		} else if !info.Torn && !info.Corrupt {
			t.Fatalf("cut %d: damage not classified: %+v", cut, info)
		}
		// The repaired file accepts new records.
		if err := w2.Put("arm/next", []byte("resumed")); err != nil {
			t.Fatalf("cut %d: put after repair: %v", cut, err)
		}
		w2.Close()
		w3, info3 := openTest(t, torn)
		if info3.TruncatedBytes != 0 || info3.Records != acked+1 {
			t.Fatalf("cut %d: post-repair reopen %+v", cut, info3)
		}
		if _, ok := w3.Get("arm/next"); !ok {
			t.Fatalf("cut %d: resumed record lost", cut)
		}
		w3.Close()
	}
}

func TestCorruptMiddleDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.whs")
	w, _ := openTest(t, path)
	for i := 0; i < 3; i++ {
		if err := w.Put(fmt.Sprintf("arm/%d", i), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	raw[len(raw)/2] ^= 0x5a
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	w2, info := openTest(t, path)
	defer w2.Close()
	if !info.Corrupt && !info.Torn {
		t.Fatalf("flip undetected: %+v", info)
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("corrupt suffix not truncated")
	}
	if info.Records >= 3 {
		t.Fatalf("recovered %d records past the damage", info.Records)
	}
}

func TestClosedPutFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.whs")
	w, _ := openTest(t, path)
	w.Close()
	if err := w.Put("k", nil); err == nil {
		t.Fatal("put after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
