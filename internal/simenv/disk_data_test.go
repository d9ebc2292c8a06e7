package simenv

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestDisk(capacity, maxFile int64) *Disk { return newDisk(capacity, maxFile) }

// diskUsed reads the disk's space accounting.
func diskUsed(d *Disk) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// fileOwner reads the owner tag a file is charged to ("" when absent).
func fileOwner(d *Disk, name string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		return f.owner
	}
	return ""
}

// crashAtNextWrite crashes d at its next data-mutating operation, which must
// report ErrDiskCrashed, tearing unsynced tails to at most keep bytes.
func crashAtNextWrite(t *testing.T, d *Disk, name string, keep int64) {
	t.Helper()
	d.ScheduleCrash(0, keep)
	if err := d.Write(name, "app", []byte("lost")); !errors.Is(err, ErrDiskCrashed) {
		t.Fatalf("write at the crash boundary: %v, want ErrDiskCrashed", err)
	}
}

func TestWriteSyncReadAll(t *testing.T) {
	d := newTestDisk(1024, 512)
	if err := d.Write("/w/log", "app", []byte("hello ")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := d.Write("/w/log", "app", []byte("world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Unsynced bytes are visible to a live reader.
	got, err := d.ReadAll("/w/log")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "hello world" {
		t.Fatalf("read %q, want %q", got, "hello world")
	}
	if err := d.Sync("/w/log"); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if sz, _ := d.Size("/w/log"); sz != 11 {
		t.Fatalf("size %d, want 11", sz)
	}
	if diskUsed(d) != 11 {
		t.Fatalf("used %d, want 11", diskUsed(d))
	}
}

func TestWriteEnforcesLimits(t *testing.T) {
	d := newTestDisk(100, 60)
	if err := d.Write("/w/a", "app", make([]byte, 70)); !errors.Is(err, ErrFileTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFileTooLarge", err)
	}
	if err := d.Write("/w/a", "app", make([]byte, 60)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := d.Write("/w/b", "app", make([]byte, 50)); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("over-capacity write: %v, want ErrDiskFull", err)
	}
	// Failed writes leave the file and accounting unchanged.
	if diskUsed(d) != 60 {
		t.Fatalf("used %d, want 60", diskUsed(d))
	}
}

func TestCrashDiscardsUnsyncedTail(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/log", []byte("durable."))
	if err := d.Sync("/w/log"); err != nil {
		t.Fatalf("sync: %v", err)
	}
	mustWrite(t, d, "/w/log", []byte("buffered"))
	crashAtNextWrite(t, d, "/w/log", 0)
	if !d.Crashed() {
		t.Fatal("disk not crashed")
	}
	if _, err := d.ReadAll("/w/log"); !errors.Is(err, ErrDiskCrashed) {
		t.Fatalf("read on crashed disk: %v, want ErrDiskCrashed", err)
	}
	if err := d.Write("/w/log", "app", []byte("x")); !errors.Is(err, ErrDiskCrashed) {
		t.Fatalf("write on crashed disk: %v, want ErrDiskCrashed", err)
	}
	d.ClearCrash()
	got, err := d.ReadAll("/w/log")
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(got) != "durable." {
		t.Fatalf("survived %q, want %q", got, "durable.")
	}
	if diskUsed(d) != 8 {
		t.Fatalf("used %d, want 8", diskUsed(d))
	}
}

func TestCrashTearsTail(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/log", []byte("abcd"))
	if err := d.Sync("/w/log"); err != nil {
		t.Fatalf("sync: %v", err)
	}
	mustWrite(t, d, "/w/log", []byte("EFGHIJ"))
	crashAtNextWrite(t, d, "/w/log", 3) // keep a 3-byte torn prefix of the tail
	d.ClearCrash()
	got, _ := d.ReadAll("/w/log")
	if string(got) != "abcdEFG" {
		t.Fatalf("torn contents %q, want %q", got, "abcdEFG")
	}
}

func TestScheduleCrashCountsBoundaries(t *testing.T) {
	d := newTestDisk(1024, 512)
	d.ScheduleCrash(2, 0) // two ops proceed, the third crashes
	if err := d.Write("/w/a", "app", []byte("one")); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := d.Sync("/w/a"); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := d.Write("/w/a", "app", []byte("three")); !errors.Is(err, ErrDiskCrashed) {
		t.Fatalf("op 3: %v, want ErrDiskCrashed", err)
	}
	d.ClearCrash()
	got, _ := d.ReadAll("/w/a")
	if string(got) != "one" {
		t.Fatalf("survived %q, want %q", got, "one")
	}
}

func TestWriteOpsCounter(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/a", []byte("x"))
	_ = d.Sync("/w/a")
	_ = d.Truncate("/w/a")
	_ = d.Remove("/w/a")
	if got := d.WriteOps(); got != 4 {
		t.Fatalf("write ops %d, want 4", got)
	}
	// Space-only appends are not write boundaries.
	_ = d.Append("/w/b", "app", 10)
	if got := d.WriteOps(); got != 4 {
		t.Fatalf("write ops after Append %d, want 4", got)
	}
}

func TestArmShortWrite(t *testing.T) {
	d := newTestDisk(1024, 512)
	d.ArmShortWrite(2)
	err := d.Write("/w/log", "app", []byte("abcdef"))
	if !errors.Is(err, ErrShortWrite) {
		t.Fatalf("short write: %v, want ErrShortWrite", err)
	}
	got, _ := d.ReadAll("/w/log")
	if string(got) != "ab" {
		t.Fatalf("persisted %q, want %q", got, "ab")
	}
	if diskUsed(d) != 2 {
		t.Fatalf("used %d, want 2", diskUsed(d))
	}
	// The arm is consumed: the next write is whole.
	if err := d.Write("/w/log", "app", []byte("cd")); err != nil {
		t.Fatalf("second write: %v", err)
	}
}

func TestArmTornWriteIsSilent(t *testing.T) {
	d := newTestDisk(1024, 512)
	d.ArmTornWrite(3)
	if err := d.Write("/w/log", "app", []byte("abcdef")); err != nil {
		t.Fatalf("torn write reported failure: %v", err)
	}
	got, _ := d.ReadAll("/w/log")
	if string(got) != "abc" {
		t.Fatalf("persisted %q, want %q", got, "abc")
	}
}

func TestArmSyncFail(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/log", []byte("gone"))
	d.ArmSyncFail()
	if err := d.Sync("/w/log"); !errors.Is(err, ErrIOFault) {
		t.Fatalf("sync: %v, want ErrIOFault", err)
	}
	got, _ := d.ReadAll("/w/log")
	if len(got) != 0 {
		t.Fatalf("tail survived failed sync: %q", got)
	}
	if diskUsed(d) != 0 {
		t.Fatalf("used %d, want 0", diskUsed(d))
	}
}

func TestArmCrashBeforeRename(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/ckpt", []byte("old"))
	_ = d.Sync("/w/ckpt")
	mustWrite(t, d, "/w/ckpt.tmp", []byte("newer"))
	_ = d.Sync("/w/ckpt.tmp")
	d.ArmCrashBeforeRename()
	if err := d.Rename("/w/ckpt.tmp", "/w/ckpt"); !errors.Is(err, ErrDiskCrashed) {
		t.Fatalf("rename: %v, want ErrDiskCrashed", err)
	}
	d.ClearCrash()
	got, _ := d.ReadAll("/w/ckpt")
	if string(got) != "old" {
		t.Fatalf("target %q, want untouched %q", got, "old")
	}
	tmp, _ := d.ReadAll("/w/ckpt.tmp")
	if string(tmp) != "newer" {
		t.Fatalf("tmp %q, want surviving %q", tmp, "newer")
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/ckpt", []byte("old!"))
	mustWrite(t, d, "/w/ckpt.tmp", []byte("newer"))
	if err := d.Rename("/w/ckpt.tmp", "/w/ckpt"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	got, _ := d.ReadAll("/w/ckpt")
	if string(got) != "newer" {
		t.Fatalf("target %q, want %q", got, "newer")
	}
	if d.Exists("/w/ckpt.tmp") {
		t.Fatal("tmp survived rename")
	}
	if diskUsed(d) != 5 {
		t.Fatalf("used %d, want 5 (old charge released)", diskUsed(d))
	}
	if owner := fileOwner(d, "/w/ckpt"); owner != "app" {
		t.Fatalf("owner %q, want app", owner)
	}
}

func TestTruncateToRepairsTail(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/log", []byte("goodrecord|torngarba"))
	_ = d.Sync("/w/log")
	if err := d.TruncateTo("/w/log", 11); err != nil {
		t.Fatalf("truncate to: %v", err)
	}
	got, _ := d.ReadAll("/w/log")
	if string(got) != "goodrecord|" {
		t.Fatalf("repaired %q, want %q", got, "goodrecord|")
	}
	if diskUsed(d) != 11 {
		t.Fatalf("used %d, want 11", diskUsed(d))
	}
	if err := d.TruncateTo("/w/log", 999); err == nil {
		t.Fatal("growing TruncateTo accepted")
	}
}

func TestShrinkAccounting(t *testing.T) {
	d := newTestDisk(1024, 512)
	if err := d.Append("/var/db/t.ISD", "mysqld", 128); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := d.Shrink("/var/db/t.ISD", 64); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if diskUsed(d) != 64 {
		t.Fatalf("used %d, want 64", diskUsed(d))
	}
	// A data-bearing file cannot shrink below its held bytes.
	mustWrite(t, d, "/w/log", []byte("held"))
	if err := d.Shrink("/w/log", 1); err == nil {
		t.Fatal("shrink below held bytes accepted")
	}
}

func TestTruncateClearsData(t *testing.T) {
	d := newTestDisk(1024, 512)
	mustWrite(t, d, "/w/log", []byte("rotate me"))
	_ = d.Sync("/w/log")
	if err := d.Truncate("/w/log"); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	got, err := d.ReadAll("/w/log")
	if err != nil || len(got) != 0 {
		t.Fatalf("post-rotation read %q (%v), want empty", got, err)
	}
}

// TestTruncatePreservesOwnerAccountingUnderRace is the satellite regression:
// concurrent appends and truncates on one owner's files must leave the used
// counter exactly equal to the surviving sizes, so RemoveOwner frees
// precisely what the owner holds (run under -race).
func TestTruncatePreservesOwnerAccountingUnderRace(t *testing.T) {
	d := newTestDisk(1<<20, 1<<20)
	const writers = 4
	const appends = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("/var/log/app.%d", w)
		wg.Add(2)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				_ = d.Append(name, "app", 8)
			}
		}(name)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < appends/10; i++ {
				_ = d.Truncate(name)
			}
		}(name)
	}
	wg.Wait()
	var total int64
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("/var/log/app.%d", w)
		sz, err := d.Size(name)
		if err != nil {
			t.Fatalf("size %q: %v", name, err)
		}
		if owner := fileOwner(d, name); owner != "app" {
			t.Fatalf("owner %q: %q, want app", name, owner)
		}
		total += sz
	}
	if used := diskUsed(d); used != total {
		t.Fatalf("used %d != sum of sizes %d after concurrent truncates", used, total)
	}
	if freed := d.RemoveOwner("app"); freed != total {
		t.Fatalf("RemoveOwner freed %d, want %d", freed, total)
	}
	if used := diskUsed(d); used != 0 {
		t.Fatalf("used %d after RemoveOwner, want 0", used)
	}
}

func mustWrite(t *testing.T, d *Disk, name string, p []byte) {
	t.Helper()
	if err := d.Write(name, "app", p); err != nil {
		t.Fatalf("write %q: %v", name, err)
	}
}

func TestReadAllMissing(t *testing.T) {
	d := newTestDisk(64, 64)
	if _, err := d.ReadAll("/nope"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read missing: %v, want ErrNoSuchFile", err)
	}
}
