package antireplay

import "antireplay/internal/store"

// Persistence types, re-exported from the implementation.
type (
	// Store is the durable cell SAVE writes and FETCH reads.
	Store = store.Store
	// MemStore is an in-memory Store (the simulated disk). The zero value
	// is ready to use.
	MemStore = store.Mem
)

// Store errors.
var (
	// ErrCorrupt reports a persisted record that failed validation.
	ErrCorrupt = store.ErrCorrupt
	// ErrSaverClosed reports a save on a closed SaverPool.
	ErrSaverClosed = store.ErrClosed
)
