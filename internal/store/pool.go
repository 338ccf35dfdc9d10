package store

import (
	"sync"
	"sync/atomic"
)

// SaverPool executes background SAVEs — the paper's "& SAVE(s) {SAVE(s)
// executed in background}" — for many stores on a bounded set of workers;
// a pool of one worker is the single-SA form. Each store gets a PoolSaver
// handle that coalesces its queued saves into their maximum (saveBatch). A
// handle is processed by at most one worker at a time, and that is
// essential, not an optimization: the saved values are monotonically
// increasing counters, and saves committing out of order could let a stale
// value land last and silently shrink the durable counter — which would
// break the wake-up leap bound.
//
// The pool is sharded: each worker owns a private queue, and a handle is
// pinned to one shard for its lifetime. Journal cells report their commit
// lane (Cell.Lane) and route by it, so a lane only ever sees one saver;
// every other store (Mem) round-robins.
//
// A worker runs in rounds. It swaps out its whole queue, takes each handle's
// coalesced maximum and stages it (Cell.Stage: a memcpy under the lane
// mutex), then waits for each record in turn (Cell.WaitDurable): the first
// wait on a lane commits everything the round staged there with one write
// and one fsync, the rest return on the watermark. Callbacks run after each
// handle's wait, and a handle that gained work meanwhile goes back on the
// queue for the next round. A round therefore costs one fsync per lane with
// work, not one per handle — as a gateway's wake-up, which stages and
// commits each lane itself, pays — and SAVEs that arrive while the worker
// is inside an fsync share the next one. A worker still commits its lanes
// one after another. Stores that cannot stage (Mem) take the same loop
// through saveStager.
//
// The pool does not retry a failed save: the callbacks get the store's error
// as it is, once. A cell's errors are permanent (closed, fenced, a bad key, a
// poisoned lane), and the paper's own retry is the endpoint's: a failed save
// rolls its lst back, so the next trigger saves again.
type SaverPool struct {
	shards []poolShard
	rr     atomic.Uint32 // round-robin cursor for handles over stores that are not cells
	wg     sync.WaitGroup

	// requested counts StartSave calls; persisted counts the coalesced
	// writes that actually reached the stores. The difference is the
	// pool's coalescing win — saves absorbed into a later write.
	requested atomic.Uint64
	persisted atomic.Uint64
}

// poolShard is one worker's private queue.
type poolShard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*PoolSaver // handles with pending work, each present at most once
	inRound int          // handles the worker took off the queue and has not finished
	closed  bool
}

// DefaultPoolWorkers is the worker count NewSaverPool uses when given <= 0.
const DefaultPoolWorkers = 8

// laner is implemented by stores that persist into one commit lane of a
// laned medium; see Cell.Lane.
type laner interface{ Lane() int }

// saveStager adapts a store that cannot stage to a worker's rounds: Stage
// hands the value through as its own sequence number and the blocking Save
// runs where a cell would wait.
type saveStager struct{ Store }

func (s saveStager) Stage(v uint64) (uint64, error) { return v, nil }
func (s saveStager) WaitDurable(v uint64) error     { return s.Save(v) }

// NewSaverPool starts a pool of the given number of workers (<= 0 means
// DefaultPoolWorkers), one queue shard per worker.
func NewSaverPool(workers int) *SaverPool {
	if workers <= 0 {
		workers = DefaultPoolWorkers
	}
	p := &SaverPool{shards: make([]poolShard, workers)}
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
	var shard int
	if l, ok := st.(laner); ok {
		shard = l.Lane() % len(p.shards)
	} else {
		shard = int(p.rr.Add(1)-1) % len(p.shards)
	}
	s := &PoolSaver{p: p, sh: &p.shards[shard]}
	if s.sg, _ = st.(Stager); s.sg == nil {
		s.sg = saveStager{st}
	}
	return s
}

// Workers returns the number of workers the pool runs.
func (p *SaverPool) Workers() int { return len(p.shards) }

// SavesRequested returns how many saves handles have queued (StartSave
// calls) over the pool's lifetime.
func (p *SaverPool) SavesRequested() uint64 { return p.requested.Load() }

// SavesPersisted returns how many coalesced writes reached the stores.
// SavesRequested minus SavesPersisted is the coalescing win.
func (p *SaverPool) SavesPersisted() uint64 { return p.persisted.Load() }

// QueueDepth returns how many handles currently have unpersisted work
// across all shards, queued or in a worker's current round — the backlog a
// scrape watches for saver-pool saturation.
func (p *SaverPool) QueueDepth() int {
	depth := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		depth += len(sh.queue) + sh.inRound
		sh.mu.Unlock()
	}
	return depth
}

type pendingSave struct {
	v    uint64
	done func(error)
}

// saveBatch is one drained batch of a handle's queued saves. Only its
// maximum is written (a durable v' >= v is at least as safe as a durable
// v), then every done callback receives that save's result.
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

// PoolSaver queues saves for one store onto its pool shard. It satisfies
// core.BackgroundSaver.
type PoolSaver struct {
	p  *SaverPool
	sh *poolShard
	sg Stager // the store itself, or saveStager{store}

	mu      sync.Mutex
	idle    *sync.Cond // broadcast when active clears; built by the first Flush that waits
	pending saveBatch
	active  bool // on the shard's queue or in its worker's current round
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
		if s.idle == nil {
			s.idle = sync.NewCond(&s.mu)
		}
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// wakeIdleLocked wakes the Flush waiters, if any, once active has cleared.
func (s *PoolSaver) wakeIdleLocked() {
	if s.idle != nil {
		s.idle.Broadcast()
	}
}

// fail drains the handle's pending saves with err, without a worker.
func (s *PoolSaver) fail(err error) {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.active = false
	s.wakeIdleLocked()
	s.mu.Unlock()
	batch.done(err)
}

// roundSave is one handle's share of a worker round: the batch taken off the
// handle and the staged record's sequence number, or the error staging or
// waiting returned.
type roundSave struct {
	batch saveBatch
	seq   uint64
	err   error
}

// worker runs the shard's rounds. Only it takes handles off the queue and a
// handle is on the queue at most once, so saves for one store never race and
// the durable value only grows.
func (p *SaverPool) worker(sh *poolShard) {
	defer p.wg.Done()
	var handles []*PoolSaver // the round's handles; trades slabs with the queue
	var round []roundSave
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
		handles, sh.queue = sh.queue, handles[:0]
		sh.inRound = len(handles)
		sh.mu.Unlock()

		// Stage: every handle's coalesced maximum goes into its lane's
		// staging buffer before anything waits, so the first wait on a lane
		// commits them all.
		round = round[:0]
		for _, h := range handles {
			h.mu.Lock()
			rs := roundSave{batch: h.pending}
			h.pending = nil
			h.mu.Unlock()
			rs.seq, rs.err = h.sg.Stage(rs.batch.max())
			round = append(round, rs)
		}
		p.persisted.Add(uint64(len(handles)))
		// Wait, complete, and release or requeue, handle by handle.
		for i, h := range handles {
			rs := &round[i]
			if rs.err == nil {
				rs.err = h.sg.WaitDurable(rs.seq)
			}
			rs.batch.done(rs.err)

			// The shard is updated inside the handle's lock (nothing takes
			// the two the other way round), so QueueDepth never counts a
			// handle that Flush already reports idle.
			h.mu.Lock()
			again := len(h.pending) > 0 // queued while the round ran: next round's work
			sh.mu.Lock()
			sh.inRound--
			if again {
				sh.queue = append(sh.queue, h)
			}
			sh.mu.Unlock()
			if !again {
				h.active = false
				h.wakeIdleLocked()
			}
			h.mu.Unlock()
		}
		clear(handles) // drop the references: a removed SA's handle must be collectable
		clear(round)
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
