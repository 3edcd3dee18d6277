package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
)

// ErrInjected is the error surfaced by FaultFS for every injected I/O
// failure. Callers that want to distinguish a staged disk fault from a
// genuine one (the chaos harness does, to assert its faults actually
// fired) can errors.Is against it.
var ErrInjected = errors.New("checkpoint: injected I/O fault")

// Fault is the injector's verdict for a single filesystem operation.
// The zero value means "no fault: pass through".
type Fault struct {
	// Err, when non-nil, is returned from the operation (wrapped so it
	// matches ErrInjected when it or the wrapping chain does).
	Err error
	// Keep bounds how many bytes of a WriteFile actually reach the file
	// before the fault takes effect. With Err set it models a short
	// write that is also reported as a failure; with Torn set it models
	// a lying disk: Keep bytes land, the rest vanish, and the call
	// reports success. Ignored by non-write operations.
	Keep int
	// Torn makes a WriteFile silently truncate at Keep bytes while
	// reporting success — the classic torn write that only a later
	// checksum can catch.
	Torn bool
}

// EIO returns a Fault that fails the operation outright with ErrInjected.
func EIO() Fault { return Fault{Err: ErrInjected} }

// TornWrite returns a Fault that keeps the first k bytes of a write and
// reports success.
func TornWrite(k int) Fault { return Fault{Torn: true, Keep: k} }

// FaultFS wraps an inner FS and consults Decide before every operation.
// Decide runs under the FaultFS lock, so injector state (op counters,
// crash points) needs no extra synchronisation. A nil Decide passes
// everything through.
//
// Crash points are expressed in Decide itself: after a chosen operation
// count, return EIO() for every subsequent op — from the Store's point
// of view the disk has died, which is indistinguishable from the process
// dying mid-save with respect to what lands on disk.
type FaultFS struct {
	Inner FS

	mu     sync.Mutex
	decide func(op Op, path string) Fault
	faults int
}

// NewFaultFS wraps inner (the OS filesystem when nil) with a fault
// injector.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS()
	}
	return &FaultFS{Inner: inner}
}

// SetDecide installs the fault policy. Passing nil clears it.
func (f *FaultFS) SetDecide(decide func(op Op, path string) Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.decide = decide
}

// Faults reports how many operations have had a fault injected so far.
func (f *FaultFS) Faults() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// check consults the policy for one operation.
func (f *FaultFS) check(op Op, path string) Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.decide == nil {
		return Fault{}
	}
	v := f.decide(op, path)
	if v.Err != nil || v.Torn {
		f.faults++
	}
	return v
}

// wrap ties an injected error to ErrInjected and the op it hit.
func wrapFault(op Op, path string, err error) error {
	if errors.Is(err, ErrInjected) {
		return fmt.Errorf("%s %s: %w", op, path, err)
	}
	return fmt.Errorf("%s %s: %w (%v)", op, path, ErrInjected, err)
}

func (f *FaultFS) MkdirAll(dir string) error {
	if v := f.check(OpMkdirAll, dir); v.Err != nil {
		return wrapFault(OpMkdirAll, dir, v.Err)
	}
	return f.Inner.MkdirAll(dir)
}

func (f *FaultFS) WriteFile(name string, data []byte) error {
	v := f.check(OpWriteFile, name)
	switch {
	case v.Err != nil:
		// Short write: part of the payload lands, then the call fails.
		if v.Keep > 0 && v.Keep < len(data) {
			_ = f.Inner.WriteFile(name, data[:v.Keep])
		}
		return wrapFault(OpWriteFile, name, v.Err)
	case v.Torn:
		keep := v.Keep
		if keep > len(data) {
			keep = len(data)
		}
		return f.Inner.WriteFile(name, data[:keep])
	default:
		return f.Inner.WriteFile(name, data)
	}
}

func (f *FaultFS) Sync(name string) error {
	if v := f.check(OpSync, name); v.Err != nil {
		return wrapFault(OpSync, name, v.Err)
	}
	return f.Inner.Sync(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if v := f.check(OpSyncDir, dir); v.Err != nil {
		return wrapFault(OpSyncDir, dir, v.Err)
	}
	return f.Inner.SyncDir(dir)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if v := f.check(OpRename, oldname); v.Err != nil {
		return wrapFault(OpRename, oldname, v.Err)
	}
	return f.Inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if v := f.check(OpRemove, name); v.Err != nil {
		return wrapFault(OpRemove, name, v.Err)
	}
	return f.Inner.Remove(name)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if v := f.check(OpReadFile, name); v.Err != nil {
		return nil, wrapFault(OpReadFile, name, v.Err)
	}
	return f.Inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	if v := f.check(OpReadDir, dir); v.Err != nil {
		return nil, wrapFault(OpReadDir, dir, v.Err)
	}
	return f.Inner.ReadDir(dir)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if v := f.check(OpStat, name); v.Err != nil {
		return nil, wrapFault(OpStat, name, v.Err)
	}
	return f.Inner.Stat(name)
}
