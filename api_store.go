package antireplay

import "antireplay/internal/store"

// Persistence types, re-exported from the implementation.
type (
	// Store is the durable cell SAVE writes and FETCH reads.
	Store = store.Store
	// MemStore is an in-memory Store (the simulated disk). The zero value
	// is ready to use.
	MemStore = store.Mem
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

// NewFaultyStore wraps st with fault injection.
func NewFaultyStore(st Store) *FaultyStore { return store.NewFaulty(st) }
