package store

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"antireplay/internal/stats"
)

// SaverPool executes background SAVEs for many stores on a bounded set of
// workers — the gateway-scale replacement for one AsyncSaver goroutine per
// SA. Each store gets a PoolSaver handle with the same drain-the-queue,
// persist-only-the-maximum coalescing AsyncSaver performs, and the same
// monotonicity invariant: a handle is processed by at most one worker at a
// time, so a stale value can never land after a newer one.
//
// The pool is sharded: each worker owns a private queue, and a handle is
// pinned to one shard for its lifetime. Stores that report a commit lane
// (Cell.Lane — cells of a laned journal) route by lane, so all of one
// lane's background saves drain on one worker and group-commit into that
// lane's fsyncs instead of scattering every lane's traffic across every
// worker; lane-less stores round-robin. With 100k SAs a pool of a few
// workers bounds goroutines and keeps the durable medium's queues short.
type SaverPool struct {
	shards []poolShard
	rr     atomic.Uint32 // round-robin cursor for lane-less handles
	wg     sync.WaitGroup

	// requested counts StartSave calls; persisted counts the coalesced
	// writes that actually reached the stores. The difference is the
	// pool's coalescing win — saves absorbed into a later write.
	requested stats.Counter
	persisted stats.Counter
	// retries counts additional Save attempts after a transient failure;
	// giveUps counts batches whose whole retry budget failed — each one
	// surfaced to the callbacks as ErrSaveRetriesExhausted, stalling that
	// SA at its durable horizon until the medium recovers.
	retries stats.Counter
	giveUps stats.Counter

	retryMu sync.Mutex
	retry   SaveRetry
}

// SaveRetry bounds the pool's retry of transiently failing saves: a batch's
// Save is attempted up to Attempts times total, sleeping a jittered,
// exponentially growing delay (starting at Base, capped at Max) between
// attempts. Permanent failures — a closed or fenced store, or a poisoned
// journal lane (which must never see a retried sync reported as success) —
// are returned immediately, unwrapped. A retry budget that runs out returns
// the last error wrapped in ErrSaveRetriesExhausted.
type SaveRetry struct {
	Attempts int           // total Save attempts per batch; < 1 clamps to 1
	Base     time.Duration // first inter-attempt delay
	Max      time.Duration // delay cap; 0 means uncapped
}

// DefaultSaveRetry is the retry policy a new pool starts with: a couple of
// quick retries absorb blips (a transient EINTR-class error, a store
// mid-reopen) without materially delaying the worker, while anything
// longer-lived fails fast enough that the SA's horizon stall — the paper's
// bounded-degradation answer — takes over.
func DefaultSaveRetry() SaveRetry {
	return SaveRetry{Attempts: 3, Base: 200 * time.Microsecond, Max: 5 * time.Millisecond}
}

// SetRetry replaces the pool's retry policy; it may be called at any time
// and applies to batches drained after the call.
func (p *SaverPool) SetRetry(r SaveRetry) {
	if r.Attempts < 1 {
		r.Attempts = 1
	}
	p.retryMu.Lock()
	p.retry = r
	p.retryMu.Unlock()
}

// retryPolicy snapshots the current policy.
func (p *SaverPool) retryPolicy() SaveRetry {
	p.retryMu.Lock()
	defer p.retryMu.Unlock()
	return p.retry
}

// poisoner is implemented by stores backed by a journal lane that can be
// poisoned by an I/O failure; see Journal.Poisoned.
type poisoner interface{ Poisoned() error }

// permanentSaveErr reports whether err from st cannot be cured by retrying:
// retrying a closed/fenced store is pointless, and retrying into a poisoned
// lane is forbidden outright — after a failed fsync the medium's page-cache
// state is undefined, so a retried sync could "succeed" over holes.
func permanentSaveErr(st Store, err error) bool {
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrFenced) {
		return true
	}
	if pz, ok := st.(poisoner); ok && pz.Poisoned() != nil {
		return true
	}
	return false
}

// saveWithRetry persists v into st under the pool's retry policy.
func (p *SaverPool) saveWithRetry(st Store, v uint64) error {
	r := p.retryPolicy()
	err := st.Save(v)
	if err == nil || permanentSaveErr(st, err) {
		return err
	}
	delay := r.Base
	for attempt := 1; attempt < r.Attempts; attempt++ {
		p.retries.Add(1)
		if delay > 0 {
			// Full jitter around the nominal delay so a burst of failing
			// handles does not re-converge on the medium in lockstep.
			time.Sleep(delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1)))
		}
		delay *= 2
		if r.Max > 0 && delay > r.Max {
			delay = r.Max
		}
		if err = st.Save(v); err == nil || permanentSaveErr(st, err) {
			return err
		}
	}
	if r.Attempts > 1 {
		p.giveUps.Add(1)
		return fmt.Errorf("%w (%d attempts): %w", ErrSaveRetriesExhausted, r.Attempts, err)
	}
	return err
}

// poolShard is one worker's private queue.
type poolShard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*PoolSaver // handles with pending work, each present at most once
	closed bool
}

// DefaultPoolWorkers is the worker count NewSaverPool uses when given <= 0.
const DefaultPoolWorkers = 8

// laner is implemented by stores that persist into one commit lane of a
// laned medium; see Cell.Lane.
type laner interface{ Lane() int }

// NewSaverPool starts a pool of the given number of workers (<= 0 means
// DefaultPoolWorkers), one queue shard per worker.
func NewSaverPool(workers int) *SaverPool {
	if workers <= 0 {
		workers = DefaultPoolWorkers
	}
	p := &SaverPool{shards: make([]poolShard, workers), retry: DefaultSaveRetry()}
	p.wg.Add(workers)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.cond = sync.NewCond(&sh.mu)
		go p.worker(sh)
	}
	return p
}

// Saver returns a BackgroundSaver-compatible handle persisting to st
// through the pool. Handles over lane-reporting stores pin to the lane's
// shard; others round-robin across shards.
func (p *SaverPool) Saver(st Store) *PoolSaver {
	shard := -1
	if l, ok := st.(laner); ok {
		if lane := l.Lane(); lane >= 0 {
			shard = lane % len(p.shards)
		}
	}
	if shard < 0 {
		shard = int(p.rr.Add(1)-1) % len(p.shards)
	}
	s := &PoolSaver{p: p, sh: &p.shards[shard], st: st}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// SavesRequested returns how many saves handles have queued (StartSave
// calls) over the pool's lifetime.
func (p *SaverPool) SavesRequested() uint64 { return p.requested.Value() }

// SavesPersisted returns how many coalesced writes reached the stores.
// SavesRequested minus SavesPersisted is the coalescing win.
func (p *SaverPool) SavesPersisted() uint64 { return p.persisted.Value() }

// SaveRetries returns how many extra Save attempts transient failures cost.
func (p *SaverPool) SaveRetries() uint64 { return p.retries.Value() }

// SaveGiveUps returns how many batches exhausted their whole retry budget
// (each surfaced as ErrSaveRetriesExhausted).
func (p *SaverPool) SaveGiveUps() uint64 { return p.giveUps.Value() }

// QueueDepth returns how many handles currently have pending work across
// all shards — the backlog a scrape watches for saver-pool saturation.
func (p *SaverPool) QueueDepth() int {
	depth := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		depth += len(sh.queue)
		sh.mu.Unlock()
	}
	return depth
}

// PoolSaver queues saves for one store onto its pool shard. It satisfies
// core.BackgroundSaver.
type PoolSaver struct {
	p  *SaverPool
	sh *poolShard
	st Store

	mu      sync.Mutex
	idle    *sync.Cond // broadcast when active clears (Flush waiters)
	pending []pendingSave
	active  bool // enqueued on the shard or being drained by its worker
}

// StartSave queues v for persistence. done, if non-nil, is called exactly
// once (from a pool worker) with the result of the save that covered v.
// After the pool is closed, done is invoked synchronously with ErrClosed.
func (s *PoolSaver) StartSave(v uint64, done func(error)) {
	s.p.requested.Add(1)
	s.mu.Lock()
	s.pending = append(s.pending, pendingSave{v: v, done: done})
	enqueue := !s.active
	s.active = true
	s.mu.Unlock()

	if !enqueue {
		return // the worker (or the queue) already owns this handle
	}
	sh := s.sh
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		s.fail(ErrClosed)
		return
	}
	sh.queue = append(sh.queue, s)
	sh.cond.Signal()
	sh.mu.Unlock()
}

// Flush blocks until the handle is quiescent: every save queued before the
// call has been persisted (or failed) and no worker is draining it. It is
// the removal path's barrier — a caller that has stopped producing new
// saves (e.g. by resetting the endpoint) flushes before tombstoning the
// store, so no stale counter can land after the tombstone and resurrect a
// retired key. With producers still active, Flush may wait indefinitely.
func (s *PoolSaver) Flush() {
	s.mu.Lock()
	for s.active || len(s.pending) > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// fail drains the handle's pending saves with err, without a worker.
func (s *PoolSaver) fail(err error) {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.active = false
	s.idle.Broadcast()
	s.mu.Unlock()
	for _, ps := range batch {
		if ps.done != nil {
			ps.done(err)
		}
	}
}

// drain persists the handle's queued saves, coalescing each batch to its
// maximum, until none remain. Only the owning worker runs this, so saves
// for one store never race and the durable value only grows.
func (s *PoolSaver) drain() {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.active = false
			s.idle.Broadcast()
			s.mu.Unlock()
			return
		}
		batch := s.pending
		s.pending = nil
		s.mu.Unlock()

		s.p.persisted.Add(1)
		saveBatch(s.save, batch)
	}
}

// save persists v into the handle's store under the pool's retry policy.
func (s *PoolSaver) save(v uint64) error { return s.p.saveWithRetry(s.st, v) }

func (p *SaverPool) worker(sh *poolShard) {
	defer p.wg.Done()
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 && !sh.closed {
			sh.cond.Wait()
		}
		if len(sh.queue) == 0 {
			// Closed and drained.
			sh.mu.Unlock()
			return
		}
		h := sh.queue[0]
		sh.queue = sh.queue[1:]
		sh.mu.Unlock()
		h.drain()
	}
}

// Close drains every queued save and stops the workers. Saves started after
// Close complete synchronously with ErrClosed.
func (p *SaverPool) Close() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	p.wg.Wait()
}
