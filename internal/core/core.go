// Package core implements the paper's contribution: the anti-replay window
// protocol augmented with SAVE and FETCH (§4), plus the unaugmented baseline
// protocol (§2) for comparison.
//
// A Sender numbers outgoing messages and, every K messages, starts a
// background SAVE of its counter. A Receiver admits sequence numbers through
// an anti-replay window and, every K window advances, SAVEs the window's
// right edge. After a reset, an endpoint FETCHes the last durable value,
// adds a leap of 2K (covering the at-most-2K gap a torn background save can
// leave, Figures 1–2), synchronously SAVEs the leaped value, and only then
// resumes — the receiver buffering any messages that arrive during that
// final save (§4, "second consideration").
//
// A process that restarts is a reset too, so the same rule governs birth:
// an endpoint built over a store that already holds a value is born
// StateDown and only Wake brings it up; over an empty store it is born up
// at its initial value, staged in a journal cell and durable before the
// first Next or Admit returns, or saved synchronously in any other store.
// Whoever builds an endpoint calls Wake once it is wired — a no-op on one
// that is up — and never inspects the store itself.
//
// Both endpoints are safe for concurrent use and are driven either by the
// deterministic simulator (netsim.SimSaver, virtual time) or by real
// goroutines (store.SaverPool, wall clock); HeldSaver is the saver of
// hand-written schedules.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"antireplay/internal/store"
)

// Sentinel errors.
var (
	// ErrDown reports an operation on an endpoint that has been reset and
	// has not woken up.
	ErrDown = errors.New("core: endpoint is down")
	// ErrWaking reports a send attempted while the post-wake SAVE is still
	// running; the paper requires the sender to wait for it.
	ErrWaking = errors.New("core: endpoint is waking up")
	// ErrNoSavedState reports a FETCH that found no durable value; the
	// endpoint cannot resume safely and stays down.
	ErrNoSavedState = errors.New("core: no saved sequence state to fetch")
	// ErrSaveLag reports a send refused by the strict durable horizon: the
	// next sequence number would exceed committed+leap, so handing it out
	// before a save commits could let a later reset reuse it. Back off and
	// retry; persistent ErrSaveLag means K is undersized for the medium
	// (see SizeK).
	ErrSaveLag = errors.New("core: durable horizon reached, save still in flight")
	// ErrConfig reports an invalid endpoint configuration.
	ErrConfig = errors.New("core: invalid configuration")
)

// State is the lifecycle state of an endpoint.
type State uint8

// Endpoint states.
const (
	// StateUp means the endpoint is in normal operation.
	StateUp State = iota + 1
	// StateDown means the endpoint has been reset and not yet woken.
	StateDown
	// StateWaking means the endpoint has fetched and leaped its sequence
	// state and is waiting for the post-wake SAVE to complete.
	StateWaking
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateWaking:
		return "waking"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// BackgroundSaver starts asynchronous SAVE operations, mirroring the paper's
// "& SAVE(s) executed in background". done (possibly nil) must be invoked
// exactly once with the save's result, unless the saver is canceled by a
// reset first. netsim.SimSaver implements this over virtual time and
// store.PoolSaver over goroutines; SyncSaver degenerates to an immediate
// synchronous save.
type BackgroundSaver interface {
	StartSave(v uint64, done func(error))
}

// Canceler is optionally implemented by savers whose in-flight saves a reset
// must discard (a real crash destroys the write in transit). Cancel returns
// how many saves it tore: their done never runs, so the endpoint counts them
// as failed.
type Canceler interface {
	Cancel() int
}

// SyncSaver is a BackgroundSaver that saves synchronously: StartSave
// returns only after the value is durable and done has run.
type SyncSaver struct {
	Store store.Store
}

var _ BackgroundSaver = SyncSaver{}

// StartSave saves v and then invokes done with the result.
func (s SyncSaver) StartSave(v uint64, done func(error)) {
	err := s.Store.Save(v)
	if done != nil {
		done(err)
	}
}

// HeldSaver is the BackgroundSaver deterministic schedules are written
// with: StartSave only queues, and a save lands when the schedule says so —
// Commit, CommitAll, Fail — or never, if a reset tears it first (Cancel).
// No lock is held while the store or a completion runs.
type HeldSaver struct {
	Store store.Store

	mu   sync.Mutex
	held []func(error) // oldest first; nil error means save, then complete
}

// StartSave queues the save of v.
func (h *HeldSaver) StartSave(v uint64, done func(error)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held = append(h.held, func(err error) {
		if err == nil {
			err = h.Store.Save(v)
		}
		if done != nil {
			done(err)
		}
	})
}

// Cancel implements Canceler: a reset tears every queued save.
func (h *HeldSaver) Cancel() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	torn := len(h.held)
	h.held = nil
	return torn
}

// Pending returns the number of queued saves.
func (h *HeldSaver) Pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held)
}

// Fail completes the oldest queued save with err without saving it (a nil
// err saves it first); false means nothing was queued.
func (h *HeldSaver) Fail(err error) bool {
	h.mu.Lock()
	if len(h.held) == 0 {
		h.mu.Unlock()
		return false
	}
	settle := h.held[0]
	h.held = h.held[1:]
	h.mu.Unlock()
	settle(err)
	return true
}

// Commit saves the oldest queued value and completes it with the store's
// verdict; false means nothing was queued.
func (h *HeldSaver) Commit() bool { return h.Fail(nil) }

// CommitAll commits until nothing is queued, completions' own saves included.
func (h *HeldSaver) CommitAll() {
	for h.Commit() {
	}
}

// Leap computes the sequence-number leap added to a fetched value on
// wake-up: ceil(factor*k). The paper proves factor 2 is sufficient (the gap
// between the value a FETCH returns and the last sequence number used before
// the reset is at most 2K) and the leap-ablation experiment shows it is also
// necessary. DefaultLeapFactor is the paper's choice.
func Leap(k uint64, factor float64) uint64 {
	if factor <= 0 || k == 0 {
		return 0
	}
	return uint64(math.Ceil(factor * float64(k)))
}

// DefaultLeapFactor is the paper's leap multiplier: leap = 2K.
const DefaultLeapFactor = 2.0

// SizeK applies the paper's §4 sizing rule: the SAVE interval must be at
// least the number of messages that can be sent (or received) during one
// SAVE, K = ceil(tSave/tSend), floored at 1. The rule is load-bearing for
// the 2K bound: if more than K messages flow while a save is in flight, the
// durable value can lag the live counter by more than 2K and the wake-up
// leap no longer covers the gap. (Paper example: 100µs write, 4µs send,
// K = 25.)
func SizeK(tSave, tSend time.Duration) uint64 {
	if tSend <= 0 || tSave <= 0 {
		return 1
	}
	k := uint64(math.Ceil(float64(tSave) / float64(tSend)))
	if k == 0 {
		k = 1
	}
	return k
}
