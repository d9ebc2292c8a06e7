package simenv

import (
	"errors"
	"fmt"
	"sync"
)

var (
	// ErrDiskFull is returned when a write would exceed the file-system
	// capacity — the study's "full file system" condition.
	ErrDiskFull = errors.New("simenv: file system full")
	// ErrFileTooLarge is returned when a file would exceed the maximum
	// allowed file size — the study's oversized log/database file condition.
	ErrFileTooLarge = errors.New("simenv: file exceeds maximum allowed size")
	// ErrNoSuchFile is returned for operations on missing files.
	ErrNoSuchFile = errors.New("simenv: no such file")
	// ErrDiskCrashed is returned by every disk operation after a simulated
	// process crash at a write boundary (ScheduleCrash) until
	// ClearCrash models the replacement process starting up.
	ErrDiskCrashed = errors.New("simenv: process crashed at a write boundary")
	// ErrShortWrite is returned by a Write that persisted only a prefix of
	// its payload (the armed short-write fault).
	ErrShortWrite = errors.New("simenv: short write")
	// ErrIOFault is returned by a Sync that failed and discarded the
	// unsynced tail (the armed fsync-failure fault; per POSIX the state of
	// unflushed data after a failed fsync is undefined, and this disk takes
	// the hostile reading).
	ErrIOFault = errors.New("simenv: i/o fault on sync")
)

// Disk is a simulated file system with a capacity limit and a per-file size
// limit. Two classes of file coexist:
//
//   - space-only files, grown with Append: only sizes and owner metadata are
//     tracked — the study's disk conditions are about space, not data;
//   - data-bearing files, written with Write/Sync: real bytes pass through a
//     buffered (unsynced) tail that a crash discards or tears, so durable
//     stores built on top face genuine corruption, not just accounting.
//
// The crash and fault hooks (ScheduleCrash, ArmShortWrite, ArmTornWrite,
// ArmSyncFail, ArmCrashBeforeRename) let experiments kill the writing
// process at every write boundary and damage in-flight bytes the way real
// disks do.
type Disk struct {
	mu          sync.Mutex
	capacity    int64
	maxFileSize int64
	used        int64
	files       map[string]*diskFile

	// Crash-at-write-boundary state: see ScheduleCrash.
	crashed     bool
	crashArmed  bool
	crashAfter  int
	crashKeep   int64
	writeOps    int64
	shortWrite  bool
	shortKeep   int64
	tornWrite   bool
	tornKeep    int64
	syncFail    bool
	crashRename bool
}

type diskFile struct {
	size  int64
	owner string
	// data holds the durable (synced) bytes of a data-bearing file; tail
	// holds bytes written but not yet synced. Space-only files keep both
	// nil and are tracked by size alone. Invariant for data-bearing files:
	// size == len(data)+len(tail).
	data []byte
	tail []byte
	// illegalOwner marks a file whose owner field holds an illegal value —
	// the GNOME "file has an illegal value in the owner field" trigger.
	illegalOwner bool
}

func (f *diskFile) byteLen() int64 { return int64(len(f.data) + len(f.tail)) }

func newDisk(capacity, maxFileSize int64) *Disk {
	return &Disk{
		capacity:    capacity,
		maxFileSize: maxFileSize,
		files:       make(map[string]*diskFile),
	}
}

// Capacity returns the file-system capacity in bytes.
func (d *Disk) Capacity() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.capacity
}

// SetCapacity grows or shrinks the file system (the §6.2 "automatically
// increase the disk capacity" mitigation). Shrinking below current usage is
// rejected.
func (d *Disk) SetCapacity(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < d.used {
		return fmt.Errorf("simenv: capacity %d below current usage %d", n, d.used)
	}
	d.capacity = n
	return nil
}

// MaxFileSize returns the per-file size limit.
func (d *Disk) MaxFileSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxFileSize
}

// SetMaxFileSize changes the per-file size limit (a large-file-support
// upgrade; the §6.2 "increase the resources available" mitigation for the
// file-size conditions).
func (d *Disk) SetMaxFileSize(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maxFileSize = n
}

// mutateLocked is the crash-boundary gate every data-mutating operation
// passes through. It counts the operation, fires a scheduled crash when its
// countdown expires, and rejects everything on a crashed disk. Callers hold
// the lock; a non-nil error means the operation must not proceed.
func (d *Disk) mutateLocked() error {
	if d.crashed {
		return ErrDiskCrashed
	}
	d.writeOps++
	if d.crashArmed {
		if d.crashAfter <= 0 {
			d.crashLocked(d.crashKeep)
			return ErrDiskCrashed
		}
		d.crashAfter--
	}
	return nil
}

// Append grows the named file by n bytes, creating it if necessary. The file
// is charged to owner on creation. Append enforces both the capacity and the
// per-file limit; on error the file is unchanged. Append is space-only
// accounting — no bytes are stored — and therefore does not count as a
// write boundary for scheduled crashes.
func (d *Disk) Append(name, owner string, n int64) error {
	if n < 0 {
		return fmt.Errorf("simenv: negative append %d to %q", n, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return fmt.Errorf("append %q: %w", name, ErrDiskCrashed)
	}
	f := d.files[name]
	size := int64(0)
	if f != nil {
		size = f.size
	}
	if size+n > d.maxFileSize {
		return fmt.Errorf("append %q: %w", name, ErrFileTooLarge)
	}
	if d.used+n > d.capacity {
		return fmt.Errorf("append %q: %w", name, ErrDiskFull)
	}
	if f == nil {
		f = &diskFile{owner: owner}
		d.files[name] = f
	}
	f.size += n
	d.used += n
	return nil
}

// Shrink releases n bytes of previously charged space from the named file —
// the inverse of Append for space-only accounting, used to undo a charge
// when a later step of the same logical operation fails. Shrinking below
// the bytes actually held by a data-bearing file is rejected.
func (d *Disk) Shrink(name string, n int64) error {
	if n < 0 {
		return fmt.Errorf("simenv: negative shrink %d of %q", n, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("shrink %q: %w", name, ErrNoSuchFile)
	}
	if f.size-n < f.byteLen() {
		return fmt.Errorf("simenv: shrink %d of %q below %d held bytes", n, name, f.byteLen())
	}
	f.size -= n
	d.used -= n
	return nil
}

// Write appends p to the named data-bearing file, creating it (charged to
// owner) if necessary. The bytes land in the file's unsynced tail — they
// are visible to ReadAll but a crash discards or tears them — and both the
// capacity and per-file limits are enforced up front, so a failed Write
// leaves the file unchanged. Armed faults: a short write persists only a
// prefix and returns ErrShortWrite; a torn write persists only a prefix and
// reports success (silent damage a checksum must catch later).
func (d *Disk) Write(name, owner string, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.mutateLocked(); err != nil {
		return fmt.Errorf("write %q: %w", name, err)
	}
	n := int64(len(p))
	keep := n
	var faultErr error
	switch {
	case d.shortWrite:
		d.shortWrite = false
		if d.shortKeep < n {
			keep = d.shortKeep
		}
		faultErr = fmt.Errorf("write %q: wrote %d of %d bytes: %w", name, keep, n, ErrShortWrite)
	case d.tornWrite:
		d.tornWrite = false
		if d.tornKeep < n {
			keep = d.tornKeep
		}
	}
	f := d.files[name]
	size := int64(0)
	if f != nil {
		size = f.size
	}
	if size+keep > d.maxFileSize {
		return fmt.Errorf("write %q: %w", name, ErrFileTooLarge)
	}
	if d.used+keep > d.capacity {
		return fmt.Errorf("write %q: %w", name, ErrDiskFull)
	}
	if f == nil {
		f = &diskFile{owner: owner}
		d.files[name] = f
	}
	f.tail = append(f.tail, p[:keep]...)
	f.size += keep
	d.used += keep
	return faultErr
}

// Sync flushes the named file's unsynced tail to durable storage. Only
// synced bytes survive a crash intact. With the sync-failure fault armed the
// tail is discarded and ErrIOFault returned — the hostile fsync-failure
// semantics.
func (d *Disk) Sync(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.mutateLocked(); err != nil {
		return fmt.Errorf("sync %q: %w", name, err)
	}
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("sync %q: %w", name, ErrNoSuchFile)
	}
	if d.syncFail {
		d.syncFail = false
		dropped := int64(len(f.tail))
		f.tail = nil
		f.size -= dropped
		d.used -= dropped
		return fmt.Errorf("sync %q: %w", name, ErrIOFault)
	}
	f.data = append(f.data, f.tail...)
	f.tail = nil
	return nil
}

// ReadAll returns a copy of the named file's bytes — durable data plus any
// still-unsynced tail, which is what a reader of the live file system sees.
// Space-only files read back empty regardless of their charged size.
func (d *Disk) ReadAll(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, fmt.Errorf("read %q: %w", name, ErrDiskCrashed)
	}
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("read %q: %w", name, ErrNoSuchFile)
	}
	out := make([]byte, 0, f.byteLen())
	out = append(out, f.data...)
	out = append(out, f.tail...)
	return out, nil
}

// Rename atomically replaces newName with oldName's file (contents, charge,
// and owner move; a pre-existing newName is released) — the
// write-temp-then-rename commit step of checkpointing. With the
// crash-before-rename fault armed the rename does not happen: the disk
// crashes with the temporary file still in place and the target untouched.
func (d *Disk) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.mutateLocked(); err != nil {
		return fmt.Errorf("rename %q: %w", oldName, err)
	}
	if d.crashRename {
		d.crashRename = false
		d.crashLocked(d.crashKeep)
		return fmt.Errorf("rename %q: %w", oldName, ErrDiskCrashed)
	}
	f, ok := d.files[oldName]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldName, ErrNoSuchFile)
	}
	if old, exists := d.files[newName]; exists {
		d.used -= old.size
	}
	d.files[newName] = f
	delete(d.files, oldName)
	return nil
}

// TruncateTo cuts the named data-bearing file to exactly size bytes and
// makes the kept prefix durable — the torn-tail repair a recovering store
// performs after locating the last intact record. Growing a file or cutting
// a space-only file below zero held bytes is rejected.
func (d *Disk) TruncateTo(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.mutateLocked(); err != nil {
		return fmt.Errorf("truncate %q: %w", name, err)
	}
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("truncate %q: %w", name, ErrNoSuchFile)
	}
	held := f.byteLen()
	if size < 0 || size > held {
		return fmt.Errorf("simenv: truncate %q to %d outside [0, %d]", name, size, held)
	}
	all := make([]byte, 0, held)
	all = append(all, f.data...)
	all = append(all, f.tail...)
	f.data = all[:size]
	f.tail = nil
	freed := f.size - size
	f.size = size
	d.used -= freed
	return nil
}

// Size returns the size of the named file.
func (d *Disk) Size(name string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("size %q: %w", name, ErrNoSuchFile)
	}
	return f.size, nil
}

// Exists reports whether the named file exists.
func (d *Disk) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	return ok
}

// Remove deletes the named file and releases its space.
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.mutateLocked(); err != nil {
		return fmt.Errorf("remove %q: %w", name, err)
	}
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNoSuchFile)
	}
	d.used -= f.size
	delete(d.files, name)
	return nil
}

// Truncate resets the named file to zero bytes, keeping it on disk (log
// rotation). Both durable data and any unsynced tail are discarded; the
// file's owner charge is preserved at zero size.
func (d *Disk) Truncate(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.mutateLocked(); err != nil {
		return fmt.Errorf("truncate %q: %w", name, err)
	}
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("truncate %q: %w", name, ErrNoSuchFile)
	}
	d.used -= f.size
	f.size = 0
	f.data = nil
	f.tail = nil
	return nil
}

// RemoveOwner deletes every file charged to owner and returns the bytes
// freed — a staging hook for scenarios that clear one tenant's files (and
// for application-specific cleanup in tests). Generic recovery deliberately
// does NOT call it: Env.ReclaimOwner frees descriptors, processes, and
// ports but leaves the disk alone, because the study's disk conditions are
// usually owned by *other* tenants and an application's durable state must
// survive its process's death.
func (d *Disk) RemoveOwner(owner string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var freed int64
	for name, f := range d.files {
		if f.owner == owner {
			freed += f.size
			d.used -= f.size
			delete(d.files, name)
		}
	}
	return freed
}

// SetIllegalOwner marks the file's owner field as holding an illegal value —
// the GNOME host-config trigger. Applications that parse the owner field
// observe the flag through IllegalOwner.
func (d *Disk) SetIllegalOwner(name string, illegal bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("set illegal owner %q: %w", name, ErrNoSuchFile)
	}
	f.illegalOwner = illegal
	return nil
}

// IllegalOwner reports whether the file's owner field is illegal.
func (d *Disk) IllegalOwner(name string) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return false, fmt.Errorf("illegal owner %q: %w", name, ErrNoSuchFile)
	}
	return f.illegalOwner, nil
}

// FillFrom consumes free space down to the given remaining byte count,
// charging the fill to owner — a convenience for staging "full file system"
// conditions caused by other tenants of the machine.
func (d *Disk) FillFrom(owner string, remaining int64) error {
	d.mu.Lock()
	free := d.capacity - d.used
	d.mu.Unlock()
	if free <= remaining {
		return nil
	}
	n := free - remaining
	// The filler file must itself respect the per-file limit; spread across
	// numbered files.
	i := 0
	for n > 0 {
		chunk := n
		if chunk > d.MaxFileSize() {
			chunk = d.MaxFileSize()
		}
		name := fmt.Sprintf("/var/fill/%s.%d", owner, i)
		if err := d.Append(name, owner, chunk); err != nil {
			return err
		}
		n -= chunk
		i++
	}
	return nil
}

// WriteOps returns the number of data-mutating disk operations performed so
// far (Write, Sync, Rename, TruncateTo, Remove, Truncate). Experiments use
// it to enumerate a workload's write boundaries before scheduling a crash
// at each one.
func (d *Disk) WriteOps() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeOps
}

// ScheduleCrash arms a process crash at a future write boundary: the next
// `after` data-mutating operations proceed, then the following one crashes
// the process instead of executing. At the crash every file's unsynced tail
// is torn to at most keepTail bytes (0 = dropped whole) and every
// subsequent disk operation returns ErrDiskCrashed until ClearCrash.
func (d *Disk) ScheduleCrash(after int, keepTail int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashArmed = true
	d.crashAfter = after
	d.crashKeep = keepTail
}

// crashLocked applies the crash: durable bytes survive, each unsynced tail
// is torn to at most keep bytes (the torn prefix becomes durable, the rest
// never reached the platter), and the disk rejects all further operations
// until ClearCrash. Callers hold the lock.
func (d *Disk) crashLocked(keep int64) {
	for _, f := range d.files {
		kept := int64(len(f.tail))
		if keep < kept {
			kept = keep
		}
		dropped := int64(len(f.tail)) - kept
		f.data = append(f.data, f.tail[:kept]...)
		f.tail = nil
		f.size -= dropped
		d.used -= dropped
	}
	d.crashed = true
	d.crashArmed = false
}

// Crashed reports whether the disk is in the post-crash state.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// ClearCrash models the replacement process starting up: the disk becomes
// usable again with exactly the bytes that survived the crash. Any armed
// crash schedule is cleared; armed write faults persist until they fire.
func (d *Disk) ClearCrash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
	d.crashArmed = false
}

// ArmShortWrite makes the next Write persist only its first keep bytes and
// return ErrShortWrite — the caller sees the damage immediately and must
// repair the tail.
func (d *Disk) ArmShortWrite(keep int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shortWrite = true
	d.shortKeep = keep
}

// ArmTornWrite makes the next Write persist only its first keep bytes while
// reporting success — silent damage that only a checksum can catch at the
// next read.
func (d *Disk) ArmTornWrite(keep int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tornWrite = true
	d.tornKeep = keep
}

// ArmSyncFail makes the next Sync discard the unsynced tail and return
// ErrIOFault — the hostile fsync-failure semantics.
func (d *Disk) ArmSyncFail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncFail = true
}

// ArmCrashBeforeRename makes the next Rename crash the process before the
// rename takes effect: the temporary file survives (its synced bytes
// intact), the rename target is untouched, and the disk enters the
// post-crash state.
func (d *Disk) ArmCrashBeforeRename() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashRename = true
}
