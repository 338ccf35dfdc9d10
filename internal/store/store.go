// Package store implements the paper's persistent-memory abstraction: the
// SAVE and FETCH operations over a single durable sequence-number cell.
//
// The paper assumes only that (1) a value whose SAVE has completed survives
// resets, and (2) a reset during a SAVE leaves some previously saved value
// readable (old value on a torn write). Store implementations here provide
// those guarantees: Mem models a disk in a simulation (the struct itself
// plays the role of the platter and deliberately survives protocol "resets",
// which only clear volatile endpoint state), and Lanes provides them on a
// real filesystem, for one named cell or a million: the one durable medium
// and the one on-disk format, N group-committed Journal lanes of
// checksummed append-only records under a manifest (one lane is the
// single-journal form), each cell seen as a Store through Cell.
//
// SaverPool runs the paper's "& SAVE(s) executed in background" for any
// number of stores on bounded workers, and Faulty injects faults and
// latency at the Store level for the failure-mode tests.
package store

import (
	"errors"
	"sync"

	"antireplay/internal/storefault"
)

// Sentinel errors returned by stores and wrappers.
var (
	// ErrCorrupt reports that the persisted record failed validation.
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrClosed reports use of a closed saver.
	ErrClosed = errors.New("store: closed")
	// ErrInjected is the default error produced by fault injection. It is
	// the same value as storefault.ErrInjected, so the toy single-cell
	// Faulty wrapper and the file-layer fault schedules
	// (storefault.Injector) share one injection vocabulary: a test can
	// errors.Is against either name whichever layer injected the failure.
	ErrInjected = storefault.ErrInjected
	// ErrSaveRetriesExhausted reports that the saver pool's bounded retry
	// budget ran out without a successful save; the last underlying error is
	// wrapped alongside it. The affected SA stalls at its durable horizon
	// (core.ErrSaveLag) until saves succeed again.
	ErrSaveRetriesExhausted = errors.New("store: save retries exhausted")
	// ErrBadKey reports an empty or over-long journal key.
	ErrBadKey = errors.New("store: bad journal key")
	// ErrCellClaimed reports a ClaimCell on a journal key another owner in
	// this process already holds.
	ErrCellClaimed = errors.New("store: journal cell already claimed")
	// ErrTailLagged reports a tailing reader that fell behind the journal's
	// retained record window and must resynchronize by snapshot-then-tail.
	ErrTailLagged = errors.New("store: journal tail lagged past the retained window")
	// ErrFenced reports a write to a journal fenced off by a cluster
	// promotion: a deposed primary's appends are rejected so a split brain
	// cannot advance counters the new primary owns.
	ErrFenced = errors.New("store: journal fenced (deposed primary)")
	// ErrBadTail reports a sync-follower registration with a tail that does
	// not belong to the journal (or is closed).
	ErrBadTail = errors.New("store: tail does not belong to this journal")
	// ErrSyncFollower reports a second SyncFollower registration while
	// another tail already holds the role.
	ErrSyncFollower = errors.New("store: journal already has a sync follower")
)

// Store is a durable cell holding one sequence number.
//
// Save persists v; when Save returns nil the value must survive a reset.
// Fetch returns the most recently persisted value; ok is false when nothing
// has ever been saved.
type Store interface {
	Save(v uint64) error
	Fetch() (v uint64, ok bool, err error)
}

// Stager is a store whose Save splits into Stage and WaitDurable (Cell).
type Stager interface {
	Stage(v uint64) (seq uint64, err error)
	WaitDurable(seq uint64) error
}

// Mem is an in-memory Store for simulations. The zero value is an empty
// store ready for use. It is safe for concurrent use.
//
// In a simulation the Mem value represents the persistent medium: protocol
// resets discard endpoint (volatile) state but keep the Mem, exactly as a
// hard disk survives a machine reset.
type Mem struct {
	mu      sync.Mutex
	v       uint64
	ok      bool
	saves   uint64
	fetches uint64
}

var _ Store = (*Mem)(nil)

// Save persists v.
func (m *Mem) Save(v uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.v = v
	m.ok = true
	m.saves++
	return nil
}

// Fetch returns the last saved value.
func (m *Mem) Fetch() (uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fetches++
	return m.v, m.ok, nil
}

// Saves returns the number of completed Save calls.
func (m *Mem) Saves() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

// Fetches returns the number of Fetch calls.
func (m *Mem) Fetches() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fetches
}

// Peek returns the stored value without counting as a Fetch; for tests.
func (m *Mem) Peek() (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v, m.ok
}
