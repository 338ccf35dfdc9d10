// Package storefault is the injectable file layer under the store package's
// durable medium. Lanes and its Journals perform every filesystem operation
// through the FS interface here instead of calling the os package directly,
// so a fault schedule (Injector) can make fsync fail on the 7th sync of one
// lane, tear a write short at a precise append count, return ENOSPC during a
// compaction, or break a rename — the failure classes real disks exhibit and
// the paper's persistent-memory assumption must survive.
//
// The default implementation (OS) is a zero-cost passthrough: it hands the
// store real *os.File values behind the File interface, so the hot commit
// path pays one interface-method dispatch per write/sync and nothing else —
// no closures, no wrappers, no allocations. The zero-alloc gates in
// internal/store pin that property.
package storefault

import (
	"errors"
	"os"
	"runtime"
)

// ErrInjected is the default error produced by fault injection. The store
// package aliases it (store.ErrInjected), so the toy single-cell Faulty
// wrapper and the file-layer Injector share one injection vocabulary.
var ErrInjected = errors.New("store: injected fault")

// File is the os.File-shaped surface the store's media actually use: the
// append/sync pair of the journal commit pipeline plus the recovery-time
// truncate/seek. *os.File satisfies it directly.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Name() string
}

// FS is the filesystem surface the store's media use. Every operation that
// can fail on a real disk is a method, so an Injector can fail any of them
// on schedule; SyncDir is the rename-durability fsync of the parent
// directory (a no-op on Windows, where directory handles cannot be
// flushed).
type FS interface {
	// OpenFile opens name with the given flags; Create semantics come from
	// the flags, as with os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole file, as os.ReadFile does.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(dir string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making a completed rename within it
	// durable.
	SyncDir(dir string) error
}

// osFS is the passthrough FS over the real filesystem.
type osFS struct{}

// OS returns the default passthrough FS: every method forwards to the os
// package and files are real *os.File values behind the File interface.
// The zero value is stateless; OS may be called freely.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		// Return a genuinely nil interface, not a typed-nil *os.File.
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)        { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
