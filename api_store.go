package antireplay

import "antireplay/internal/store"

// Persistence types, re-exported from the implementation.
type (
	// Store is the durable cell SAVE writes and FETCH reads.
	Store = store.Store
	// MemStore is an in-memory Store (the simulated disk). The zero value
	// is ready to use.
	MemStore = store.Mem
	// FileStore is a crash-safe file-backed Store (temp + fsync + rename +
	// CRC).
	FileStore = store.File
	// FileStoreOption configures a FileStore.
	FileStoreOption = store.FileOption
	// FaultyStore wraps a Store with fault injection for tests.
	FaultyStore = store.Faulty
)

// Store errors.
var (
	// ErrCorrupt reports a persisted record that failed validation.
	ErrCorrupt = store.ErrCorrupt
	// ErrSaverClosed reports a save on a closed SaverPool.
	ErrSaverClosed = store.ErrClosed
)

// NewFileStore returns a file-backed store at path.
func NewFileStore(path string, opts ...FileStoreOption) *FileStore {
	return store.NewFile(path, opts...)
}

// WithoutSync disables the per-save fsync on a FileStore.
func WithoutSync() FileStoreOption { return store.WithoutSync() }

// NewFaultyStore wraps st with fault injection.
func NewFaultyStore(st Store) *FaultyStore { return store.NewFaulty(st) }
