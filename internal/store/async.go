package store

import (
	"sync"
	"time"
)

// AsyncSaver executes saves on a single background worker, mirroring the
// paper's "& SAVE(s) {SAVE(s) executed in background}".
//
// The single worker is essential, not an optimization: the saved values are
// monotonically increasing counters, and concurrent per-save goroutines
// could commit out of order, letting a stale value land last and silently
// shrink the durable counter — which would break the wake-up leap bound.
// The worker therefore drains all queued saves at once and persists only
// the maximum, invoking every queued done callback with that save's result
// (a durable v' >= v is at least as safe as a durable v).
//
// Close waits for the worker to drain; no goroutine outlives the saver.
// After Close, StartSave invokes done with ErrClosed synchronously.
type AsyncSaver struct {
	inner   Store
	mu      sync.Mutex
	wg      sync.WaitGroup
	pending saveBatch
	running bool
	closed  bool
}

type pendingSave struct {
	v    uint64
	done func(error)
}

// saveBatch is one drained batch of queued saves. Only its maximum is
// written (a durable v' >= v is at least as safe as a durable v, and
// letting a stale value land last would shrink the counter and void the
// wake-up leap bound), then every done callback receives that save's
// result. AsyncSaver and SaverPool both coalesce through this one type.
type saveBatch []pendingSave

func (b saveBatch) max() uint64 {
	maxV := b[0].v
	for _, p := range b[1:] {
		if p.v > maxV {
			maxV = p.v
		}
	}
	return maxV
}

func (b saveBatch) done(err error) {
	for _, p := range b {
		if p.done != nil {
			p.done(err)
		}
	}
}

// NewAsyncSaver returns a background saver over inner.
func NewAsyncSaver(inner Store) *AsyncSaver {
	return &AsyncSaver{inner: inner}
}

// StartSave queues v for persistence. done, if non-nil, is called exactly
// once (from the worker goroutine) with the result of the save that covered
// v.
func (a *AsyncSaver) StartSave(v uint64, done func(error)) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		if done != nil {
			done(ErrClosed)
		}
		return
	}
	a.pending = append(a.pending, pendingSave{v: v, done: done})
	if !a.running {
		a.running = true
		a.wg.Add(1)
		go a.worker()
	}
	a.mu.Unlock()
}

func (a *AsyncSaver) worker() {
	defer a.wg.Done()
	for {
		a.mu.Lock()
		if len(a.pending) == 0 {
			a.running = false
			a.mu.Unlock()
			return
		}
		batch := a.pending
		a.pending = nil
		a.mu.Unlock()

		batch.done(a.inner.Save(batch.max()))
	}
}

// Close waits for queued saves to drain and rejects new ones.
func (a *AsyncSaver) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.wg.Wait()
}

// Latent wraps a Store and adds a fixed wall-clock delay to each Save,
// emulating a slow persistent medium (the paper's T_save, e.g. 100µs for a
// disk write on the paper's Pentium III testbed).
type Latent struct {
	inner Store
	delay time.Duration
}

var _ Store = (*Latent)(nil)

// NewLatent wraps inner so every Save sleeps for delay before persisting.
func NewLatent(inner Store, delay time.Duration) *Latent {
	return &Latent{inner: inner, delay: delay}
}

// Save sleeps for the configured delay, then persists v.
func (l *Latent) Save(v uint64) error {
	if l.delay > 0 {
		time.Sleep(l.delay)
	}
	return l.inner.Save(v)
}

// Fetch reads the persisted value without added delay.
func (l *Latent) Fetch() (uint64, bool, error) { return l.inner.Fetch() }
