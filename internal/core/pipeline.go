package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"antireplay/internal/store"
)

// savePipeline is the paper's SAVE/FETCH machine, the part of processes p
// and q that is the same: start a background SAVE once the live value has
// moved K past the last one saved, drop the saves a reset tears, and on
// wake-up FETCH, leap 2K, SAVE the leaped value and only then resume.
// Sender and Receiver embed it and add what is theirs — the counter, the
// window — plus the install hook that puts a woken value into it.
//
// Two locks, never nested. mu guards the lifecycle (state, gen, wakeErr,
// the completion counters) and the embedding endpoint's volatile state.
// saveMu guards the hand-off to the saver: triggers are decided under mu
// but handed over after it is released, so everything that must be
// consistent with the hand-off is decided in startSave, under saveMu.
//
// Neither lock — no lock of this package — is ever held while the saver's
// StartSave or a completion callback runs, so a saver may complete inline
// (SyncSaver; a PoolSaver whose pool is closed) and the completion may take
// either lock. The one thing a completion starts that needs the saver again
// — deciding the messages a receiver buffered during the wake — runs after
// the hand-off it completed has returned, never beneath it.
type savePipeline struct {
	// Fixed at construction.
	role             string // "sender" or "receiver", for error text
	initial          uint64 // the paper's "lst initially 1" (p) / "initially 0" (q)
	k                uint64 // SAVE interval; 0 selects the §2 baseline: no SAVE, no FETCH
	leap             uint64 // Leap(K, LeapFactor)
	store            store.Store
	saver            BackgroundSaver
	skipPostWakeSave bool
	// install puts v — the leaped value, or initial on a baseline wake —
	// into the endpoint's volatile state. It runs with mu held; a non-nil
	// result runs once mu is released.
	install func(v uint64) (afterWake func())

	mu          sync.Mutex
	state       State
	gen         uint64 // bumped by Reset; stales in-flight completions
	wakeErr     error
	savesOK     uint64
	savesFailed uint64
	resets      uint64
	birth       uint64 // 1 + seq of the record open staged, until durable; else 0

	// lst is the largest value handed to the saver (paper: lst), written
	// under saveMu or, on wake, under mu; committed is the largest value
	// known durable. Atomic because the per-packet trigger and horizon
	// checks read them under mu while saveMu moves lst, and LastStored and
	// Committed read them under no lock.
	lst        atomic.Uint64
	committed  atomic.Uint64
	savesStart atomic.Uint64

	saveMu  sync.Mutex
	saveGen uint64     // mirrors gen for startSave's torn-save check
	handing bool       // a caller is inside saver.StartSave
	handed  *sync.Cond // on saveMu; allocated by the first caller that waits
	// afterHandOff is a wake's afterWake step whose completion ran before
	// the hand-off returned; the handing caller runs it once it has.
	afterHandOff func()
	wakeDone     func(error) // under mu, set while waking: owed the wake's outcome
}

// handoff is one triggered SAVE on its way to the saver.
type handoff struct {
	gen   uint64 // generation that triggered it
	v     uint64
	force bool // bypass the dedup: the save a wake-up issues
	wake  bool // its completion finishes the wake-up, not a background save
}

// validateSaveConfig checks the configuration both endpoints share.
func validateSaveConfig(baseline bool, k uint64, st store.Store) error {
	if baseline {
		return nil
	}
	if k == 0 {
		return fmt.Errorf("%w: K must be >= 1", ErrConfig)
	}
	if st == nil {
		return fmt.Errorf("%w: Store is required", ErrConfig)
	}
	return nil
}

// configuredLeap resolves a config's LeapFactor (zero means the paper's 2)
// into the wake-up leap.
func configuredLeap(k uint64, factor float64) uint64 {
	if factor == 0 {
		factor = DefaultLeapFactor
	}
	return Leap(k, factor)
}

// open decides how a freshly built endpoint is born, and is the one place
// the restart rule lives: a used store means a reset endpoint. A resilient
// endpoint FETCHes its store. Empty, this is a first life, up at once: a
// store.Stager (a journal cell) stages the initial value, which the first
// Next or Admit waits for (awaitBirthLocked); any other store saves it
// synchronously. Holding a value, a prior life used numbers up to 2K beyond
// it, so the endpoint is born StateDown — exactly as if Reset had just run —
// and only Wake (FETCH, leap, SAVE) brings it up; nothing can hand out or
// deliver the initial value over a used store.
// A baseline endpoint never FETCHes and is always born up (§3).
func (p *savePipeline) open(baseline bool) error {
	p.state = StateUp
	p.lst.Store(p.initial)
	if baseline {
		p.k = 0
		return nil
	}
	if p.saver == nil {
		p.saver = SyncSaver{Store: p.store}
	}
	v, used, err := p.store.Fetch()
	if err != nil {
		return fmt.Errorf("core: probing %s store: %w", p.role, err)
	}
	if used {
		p.state = StateDown
		p.lst.Store(v)
		p.committed.Store(v)
		return nil
	}
	if sg, ok := p.store.(store.Stager); ok {
		seq, err := sg.Stage(p.initial)
		if err != nil {
			return fmt.Errorf("core: initializing %s store: %w", p.role, err)
		}
		p.birth = seq + 1
		return nil
	}
	if err := p.store.Save(p.initial); err != nil {
		return fmt.Errorf("core: initializing %s store: %w", p.role, err)
	}
	p.committed.Store(p.initial)
	return nil
}

// awaitBirthLocked waits, mu released, until the staged birth is durable.
// The caller re-reads the state (a Reset or Wake may have run). An error
// leaves the birth pending.
func (p *savePipeline) awaitBirthLocked() error {
	seq, gen := p.birth-1, p.gen
	p.mu.Unlock()
	err := p.store.(store.Stager).WaitDurable(seq)
	p.mu.Lock()
	switch {
	case p.birth == 0 || p.gen != gen:
		return nil
	case err != nil:
		return fmt.Errorf("core: %s birth: %w", p.role, err)
	}
	p.birth = 0
	p.committed.Store(p.initial)
	return nil
}

// due reports whether live — the counter, the window edge — has moved K
// past the last value handed to a SAVE. Callers hold mu, but lst moves
// under saveMu, so the read is racy; startSave re-checks under its lock.
func (p *savePipeline) due(live uint64) bool {
	return p.k != 0 && live >= p.k+p.lst.Load()
}

// startSave hands h to the saver, or drops it. Triggers are decided under
// mu but arrive here after it is released, so all bookkeeping that must be
// consistent with the hand-off happens here, under saveMu:
//
//   - lst moves at hand-off, not when the save is triggered. Moving it at
//     trigger time would let the next trigger wait another K while the first
//     save is still un-invoked; with C concurrent callers the live value can
//     then outrun the durable one by C*K — far beyond the 2K wake leap,
//     breaking exactly-once delivery (or no-reuse) across a reset. Here lst
//     means "largest value actually handed to the saver".
//   - Triggers can arrive out of order. Dropping any that is no fresher
//     than lst collapses a trigger herd into one write and keeps the medium
//     monotonic: a stale write landing last would regress it, and a reset
//     would then wake below delivered traffic. saveDone's rollback of lst
//     reopens the dedup so a failed save's value can be retried.
//   - h.gen is the generation at trigger time. Reset advances saveGen under
//     this same lock, so a straggler from the old life is dropped — the
//     paper's torn save — instead of writing into the new life's medium.
//   - h.force bypasses the dedup: the post-wake save must run even though
//     the previous life's volatile, possibly larger lst is still visible.
//
// Hand-offs go one at a time, so the saver sees them in the order they were
// accepted. A trigger that arrives during another's hand-off waits for it,
// holding nothing. That wait is the protocol's backpressure, not a lock:
// "SAVE in background" must have been issued before the caller uses another
// K numbers, or a descheduled hand-off is outrun without limit and the 2K
// bound is gone. What a completion starts never waits on the hand-off above
// it (see finishWake). Dropped saves complete nothing: their callbacks are
// stale or subsumed.
func (p *savePipeline) startSave(h handoff) {
	p.saveMu.Lock()
	for p.handing {
		if p.handed == nil {
			p.handed = sync.NewCond(&p.saveMu)
		}
		p.handed.Wait()
	}
	if h.gen != p.saveGen || (!h.force && h.v <= p.lst.Load()) {
		p.saveMu.Unlock()
		return
	}
	p.lst.Store(h.v)
	p.handing = true
	p.saveMu.Unlock()

	p.savesStart.Add(1)
	p.saver.StartSave(h.v, func(err error) {
		if h.wake {
			p.finishWake(h.gen, h.v, err)
		} else {
			p.saveDone(h.gen, h.v, err)
		}
	})

	p.saveMu.Lock()
	p.handing = false
	afterWake := p.afterHandOff
	p.afterHandOff = nil
	if p.handed != nil {
		p.handed.Broadcast()
	}
	p.saveMu.Unlock()
	if afterWake != nil {
		afterWake()
	}
}

// countDone records a save's completion, torn or not, under mu: every save
// startSave hands over is counted once as OK or failed — here, or as failed
// by the reset whose Cancel dropped it — so SavesStarted − SavesOK −
// SavesFailed is the saves in flight.
func (p *savePipeline) countDone(err error) {
	if err != nil {
		p.savesFailed++
	} else {
		p.savesOK++
	}
}

// saveDone finalizes a background SAVE.
func (p *savePipeline) saveDone(gen, v uint64, err error) {
	p.mu.Lock()
	p.countDone(err)
	if p.gen != gen {
		p.mu.Unlock()
		return // a reset intervened; the save was torn
	}
	if err != nil {
		// Roll lst back so the next trigger — or a retransmission
		// re-triggering the same value — retries the save, unless a newer
		// one has been accepted meanwhile. One CAS, not load-then-store:
		// startSave moves lst under saveMu, not mu, and the rollback must
		// not regress it below a value already on its way to the saver.
		p.lst.CompareAndSwap(v, p.committed.Load())
		p.mu.Unlock()
		return
	}
	if v > p.committed.Load() {
		p.committed.Store(v)
	}
	p.mu.Unlock()
}

// reset crashes the endpoint: volatile state is considered lost and any
// save in flight is torn. lose, if non-nil, runs under mu to discard the
// endpoint's own volatile state.
func (p *savePipeline) reset(lose func()) {
	p.mu.Lock()
	if lose != nil {
		lose()
	}
	p.state = StateDown
	p.gen++
	gen := p.gen
	p.resets++
	p.wakeErr = nil
	torn := p.wakeDone // non-nil: this reset tears a wake, whose save completes nothing now
	p.wakeDone = nil
	p.mu.Unlock()

	p.saveMu.Lock()
	p.saveGen = gen
	p.saveMu.Unlock()

	if c, ok := p.saver.(Canceler); ok {
		n := c.Cancel()
		p.mu.Lock()
		p.savesFailed += uint64(n)
		p.mu.Unlock()
	}
	if torn != nil {
		torn(ErrDown)
	}
}

// Wake boots the endpoint after a reset, implementing the paper's third
// action of p and q: FETCH(v); SAVE(v+2K); resume from v+2K only when that
// SAVE completes (a receiver buffers messages until then and marks its
// whole window received). Wake on an endpoint that is not down is a no-op;
// a failed FETCH or SAVE leaves it down with the error available from
// LastWakeError. A baseline endpoint (§3) restarts from its initial value.
func (p *savePipeline) Wake() { p.WakeNotify(nil) }

// WakeNotify is Wake with a completion: done (nil for none) runs exactly
// once, on whichever goroutine settles the wake, holding no lock — with nil
// once the endpoint is up (at once if it already is), with the FETCH or SAVE
// error that left it down, or with ErrDown when a Reset tears the wake.
func (p *savePipeline) WakeNotify(done func(error)) {
	p.mu.Lock()
	if p.state == StateWaking { // join the wake in flight
		if first := p.wakeDone; done != nil {
			p.wakeDone = func(err error) { first(err); done(err) }
		}
		p.mu.Unlock()
		return
	}
	if done == nil {
		done = func(error) {}
	}
	if p.state == StateUp {
		p.mu.Unlock()
		done(nil)
		return
	}
	if p.k == 0 {
		p.lst.Store(p.initial)
		afterWake := p.install(p.initial)
		p.state = StateUp
		p.mu.Unlock()
		done(nil)
		if afterWake != nil {
			afterWake()
		}
		return
	}
	p.birth = 0 // the FETCH reads it, the post-wake SAVE lands after it
	p.state = StateWaking
	p.wakeDone = done
	gen := p.gen
	p.mu.Unlock()

	v, ok, err := p.store.Fetch()
	if err == nil && !ok {
		err = ErrNoSavedState
	}
	if err != nil {
		p.mu.Lock()
		p.failWakeAndUnlock(gen, fmt.Errorf("core: %s wake fetch: %w", p.role, err))
		return
	}
	leaped := v + p.leap
	if p.skipPostWakeSave {
		// UNSAFE ablation: resume without the durable leap record; the save
		// still starts in the background, mimicking the naive fix.
		p.startSave(handoff{gen: gen, v: leaped, force: true})
		p.mu.Lock()
		p.upAndUnlock(gen, leaped)
		return
	}
	p.startSave(handoff{gen: gen, v: leaped, force: true, wake: true})
}

// failWakeAndUnlock leaves the endpoint down with err, unless a reset has
// already superseded the wake-up of generation gen, and releases mu.
func (p *savePipeline) failWakeAndUnlock(gen uint64, err error) {
	if p.gen != gen {
		p.mu.Unlock()
		return
	}
	p.state = StateDown
	p.wakeErr = err
	p.settleWakeAndUnlock(err)
}

// settleWakeAndUnlock releases mu, then hands over the outcome of the wake.
func (p *savePipeline) settleWakeAndUnlock(err error) {
	done := p.wakeDone
	p.wakeDone = nil
	p.mu.Unlock()
	done(err)
}

// finishWake completes the wake-up once the post-wake SAVE has.
func (p *savePipeline) finishWake(gen, leaped uint64, err error) {
	p.mu.Lock()
	p.countDone(err)
	if err != nil {
		p.failWakeAndUnlock(gen, fmt.Errorf("core: %s post-wake save: %w", p.role, err))
		return
	}
	p.upAndUnlock(gen, leaped)
}

// upAndUnlock brings the endpoint up at leaped, unless a reset has already
// superseded the wake-up of generation gen, and releases mu.
func (p *savePipeline) upAndUnlock(gen, leaped uint64) {
	if p.gen != gen {
		p.mu.Unlock()
		return
	}
	p.lst.Store(leaped)
	p.committed.Store(leaped)
	afterWake := p.install(leaped)
	p.state = StateUp
	p.settleWakeAndUnlock(nil)
	if afterWake == nil {
		return
	}
	// afterWake triggers saves. If this completion runs inside the wake's
	// own hand-off — the saver completed inline, or faster than StartSave
	// returned — those triggers would wait for a hand-off that is waiting
	// for them; the handing caller runs afterWake instead, once it is out.
	p.saveMu.Lock()
	if p.handing {
		p.afterHandOff, afterWake = afterWake, nil
	}
	p.saveMu.Unlock()
	if afterWake != nil {
		afterWake()
	}
}

// LastStored returns the last value handed to a SAVE (paper: lst).
func (p *savePipeline) LastStored() uint64 { return p.lst.Load() }

// Committed returns the last value known durable — the floor under the
// endpoint's horizon. Unlike LastStored (optimistic: handed to a save, not
// necessarily acknowledged) this only grows on completed SAVEs and on the
// wake-up leap, so it is the regression witness disk-fault experiments
// compare across reopen.
func (p *savePipeline) Committed() uint64 { return p.committed.Load() }

// State returns the lifecycle state.
func (p *savePipeline) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// LastWakeError returns the error that kept the last Wake from completing,
// if any.
func (p *savePipeline) LastWakeError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wakeErr
}
