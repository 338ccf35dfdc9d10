package core

import (
	"fmt"
	"sync/atomic"

	"antireplay/internal/seqwin"
	"antireplay/internal/stats"
	"antireplay/internal/store"
)

// Verdict is the receiver's outcome for one observed message.
type Verdict uint8

// Verdict values.
const (
	// VerdictNew delivers a message beyond the window's right edge.
	VerdictNew Verdict = iota + 1
	// VerdictInWindow delivers an unseen message inside the window.
	VerdictInWindow
	// VerdictDuplicate discards a message already marked in the window.
	VerdictDuplicate
	// VerdictStale discards a message below the window.
	VerdictStale
	// VerdictBuffered defers a message that arrived during the post-wake
	// SAVE; its final verdict is reported through the Drain callback.
	VerdictBuffered
	// VerdictOverflow discards a message because the post-wake buffer was
	// full.
	VerdictOverflow
	// VerdictDown discards a message that arrived while the machine was off.
	VerdictDown
	// VerdictHorizon discards a message whose sequence number lies at or
	// beyond the strict durable horizon (committed+leap): delivering it
	// before the in-flight save commits could let a later reset accept its
	// replay. Only produced with ReceiverConfig.StrictHorizon.
	VerdictHorizon
)

// Delivered reports whether the verdict delivers the message to the
// application.
func (v Verdict) Delivered() bool { return v == VerdictNew || v == VerdictInWindow }

// String returns the lower-case verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictNew:
		return "new"
	case VerdictInWindow:
		return "in-window"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictStale:
		return "stale"
	case VerdictBuffered:
		return "buffered"
	case VerdictOverflow:
		return "overflow"
	case VerdictDown:
		return "down"
	case VerdictHorizon:
		return "horizon"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

func verdictOf(d seqwin.Decision) Verdict {
	// The first four Verdict values deliberately mirror the Decision values
	// (compile-time checked below), so the per-packet conversion is a cast.
	if d >= seqwin.DecisionNew && d <= seqwin.DecisionStale {
		return Verdict(d)
	}
	return VerdictStale
}

// The cast in verdictOf relies on this correspondence; each pair is pinned
// independently so no two misalignments can cancel out.
var (
	_ = [1]struct{}{}[VerdictNew-Verdict(seqwin.DecisionNew)]
	_ = [1]struct{}{}[VerdictInWindow-Verdict(seqwin.DecisionInWindow)]
	_ = [1]struct{}{}[VerdictDuplicate-Verdict(seqwin.DecisionDuplicate)]
	_ = [1]struct{}{}[VerdictStale-Verdict(seqwin.DecisionStale)]
)

// DefaultWakeBuffer is the default capacity of the post-wake message buffer.
const DefaultWakeBuffer = 1024

// ReceiverConfig configures a Receiver.
type ReceiverConfig struct {
	// K is the paper's Kq: a background SAVE of the window edge starts
	// whenever the edge has advanced K past the last saved value.
	// Required (>= 1) unless Baseline is set.
	K uint64
	// LeapFactor scales the post-wake leap; zero means the paper's 2.
	// Negative disables the leap (ablation only; unsafe).
	LeapFactor float64
	// W is the width of the seqwin.Atomic window the receiver builds when
	// Window is nil. Defaults to 64.
	W int
	// Window overrides the window implementation. The receiver drives a
	// caller-supplied window — a seqwin.Atomic included — under its mutex
	// only: it cannot rebuild a foreign window on wake, so it never
	// publishes one to the fast path. The paper's Bool array and Bitmap
	// come in here as test oracles.
	Window seqwin.Window
	// Concurrent is ignored: every receiver that builds its own window
	// admits on the fast path.
	//
	// Deprecated: ignored. Declared only so configurations that still set
	// it keep compiling.
	Concurrent bool
	// Store is the durable cell holding the saved edge. Required unless
	// Baseline is set.
	Store store.Store
	// Saver executes background SAVEs; nil means synchronous saves.
	Saver BackgroundSaver
	// Baseline selects the §2 protocol: no SAVE/FETCH; a wake-up restarts
	// with edge 0 and a cleared window (§3).
	Baseline bool
	// AblationSkipPostWakeSave resumes immediately after FETCH+leap without
	// waiting for the synchronous post-wake SAVE, dropping the paper's §4
	// "second consideration" protection. UNSAFE — a second reset before the
	// next save then re-accepts replayed traffic. For ablation experiments
	// only.
	AblationSkipPostWakeSave bool
	// StrictHorizon enforces the invariant "every delivered sequence
	// number < committed+leap" by discarding (VerdictHorizon) messages at
	// or beyond the durable horizon. This closes a gap in the paper's
	// receiver-side analysis: its Figure 2 bound assumes the window edge
	// advances at most Kq sequence numbers per save interval, which a
	// loss-induced jump — or a SAVE hand-off the scheduler stalls while
	// other admitters run on — violates; a reset then wakes below numbers
	// already delivered and the paper's protocol delivers them twice. With
	// the guard the no-duplicate-delivery theorem holds unconditionally, at
	// the cost of bounded drops while saves catch up. Exactly-once under
	// concurrent admitters or an in-process Reset is promised only with it,
	// and only with it does the receiver admit without its mutex; without
	// it the receiver is the paper's process q, serialized, and inherits
	// the paper's timing assumption K >= ceil(T_save / T_send).
	StrictHorizon bool
	// WakeBuffer caps the messages buffered during the post-wake SAVE;
	// zero means DefaultWakeBuffer.
	WakeBuffer int
	// Drain receives the deferred verdict of each buffered message after
	// the post-wake SAVE completes, in arrival order. Nil discards them
	// (they are still counted in Stats).
	Drain func(seq uint64, v Verdict)
}

// Validate reports configuration errors.
func (c ReceiverConfig) Validate() error {
	if c.W < 0 {
		return fmt.Errorf("%w: W must be >= 0", ErrConfig)
	}
	if c.WakeBuffer < 0 {
		return fmt.Errorf("%w: WakeBuffer must be >= 0", ErrConfig)
	}
	return validateSaveConfig(c.Baseline, c.K, c.Store)
}

// Receiver is the paper's process q: an anti-replay window with SAVE/FETCH
// persistence of the right edge (the embedded pipeline). Safe for
// concurrent use.
//
// A strict receiver (ReceiverConfig.StrictHorizon) that built its own
// window admits on a wait-free fast path: the current seqwin.Atomic is
// published through an atomic pointer (RCU-style), so an admit is the
// horizon check plus the window's own lock-free admission — no mutex, no
// shared-cacheline counter. Reset unpublishes the pointer and Wake
// publishes a freshly built window, both under the mutex; a window is
// never published twice. An admit that raced a reset completes against the
// superseded window, which is equivalent to the message having arrived just
// before the crash — on one premise, which admitFast establishes: every
// fast-path delivery lies below the durable horizon of the life whose
// window it landed in. Every later wake starts at or beyond that horizon
// with every slot marked, so the number is never delivered again.
//
// The durable horizon is the only contract under which the mutex is left
// out. Without StrictHorizon nothing bounds how far deliveries outrun the
// saved edge while a SAVE hand-off is stalled, so that receiver — like one
// given a Window, which it cannot rebuild on wake — decides under the
// mutex: the paper's protocol as printed.
//
// Locking discipline: state and win are mutated only under mu; the fast
// path never reads them — it consumes the published window pointer, which
// is non-nil only while the receiver is StateUp. The pipeline's lst and
// committed are atomics the fast path reads; delivered/discarded are
// sharded counters.
type Receiver struct {
	savePipeline
	width      int  // window width (immutable)
	strict     bool // cfg.StrictHorizon && !cfg.Baseline
	wakeBuffer int  // cap on buffer
	drain      func(seq uint64, v Verdict)

	// fastWin publishes the current window to the admission fast path. It
	// is non-nil exactly while a strict receiver is StateUp with an owned
	// window and no birth pending; Reset stores nil, Wake a new window.
	fastWin atomic.Pointer[seqwin.Atomic]
	ownWin  bool // the receiver owns its Atomic window: rebuilt on wake, claim-bit tally

	// Guarded by mu.
	win        seqwin.Window
	buffer     []uint64 // messages held during StateWaking
	harvested  bool     // win's delivery tally already folded into delivered
	overflowed uint64

	// delivered/discarded share one Tallies block: both are bumped on the
	// admission path, and one 1 KiB block instead of two 1 KiB sharded
	// counters halves the per-receiver tally footprint at million-SA scale.
	tallies stats.Tallies // lanes: tallyDelivered, tallyDiscarded
}

// Lane indices into Receiver.tallies.
const (
	tallyDelivered = iota
	tallyDiscarded
)

// NewReceiver validates cfg and returns a receiver: up at edge 0 over an
// empty store (lst "initially 0", staged or saved; see savePipeline.open)
// or with Baseline set, born StateDown — every Admit is VerdictDown — over
// a store a prior life used. Call Wake after it either way: a no-op if up.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	win := cfg.Window
	var own *seqwin.Atomic
	if win == nil {
		w := cfg.W
		if w == 0 {
			w = 64
		}
		own = seqwin.NewAtomic(w)
		win = own
	}
	r := &Receiver{
		savePipeline: savePipeline{
			role: "receiver", initial: 0, k: cfg.K, leap: configuredLeap(cfg.K, cfg.LeapFactor),
			store: cfg.Store, saver: cfg.Saver,
			skipPostWakeSave: cfg.AblationSkipPostWakeSave,
		},
		win:        win,
		width:      win.W(),
		strict:     cfg.StrictHorizon && !cfg.Baseline,
		wakeBuffer: cfg.WakeBuffer,
		drain:      cfg.Drain,
	}
	if r.wakeBuffer == 0 {
		r.wakeBuffer = DefaultWakeBuffer
	}
	r.install = r.installLocked
	if err := r.open(cfg.Baseline); err != nil {
		return nil, err
	}
	if own != nil {
		// The receiver built this window itself, so it may replace it on
		// wake — the precondition for the RCU fast path, which the durable
		// horizon then opens. A receiver born down publishes nothing: its
		// first window is the one Wake builds beyond the leap.
		r.ownWin = true
		if r.strict && r.state == StateUp && r.birth == 0 {
			r.fastWin.Store(own)
		}
	}
	return r, nil
}

// Admit runs the paper's receive action for sequence number s: decide
// against the window, then start a background SAVE if the edge advanced K
// past the last saved value. While the machine is down the message is
// unobserved (VerdictDown); while waking it is buffered for the Drain
// callback (VerdictBuffered) or dropped if the buffer is full
// (VerdictOverflow). A staged first life's first call waits for its birth
// (see savePipeline.open) and discards s as VerdictHorizon if that fails.
//
// On a strict receiver with a window it built itself the common case
// completes on the wait-free fast path; see the type comment.
func (r *Receiver) Admit(s uint64) Verdict {
	if w := r.fastWin.Load(); w != nil {
		if v, ok := r.admitFast(w, s); ok {
			return v
		}
	}
	return r.admitSlow(s)
}

// admitFast decides s against w, the window the caller loaded from fastWin,
// touching no lock. It reports ok=false when the message needs the slow
// path: s lies at or beyond the durable horizon, or w is no longer the
// published window.
//
// The horizon s is held to must belong to the life w serves. committed is
// read first and the pointer checked after: a window is never republished,
// so w still published means no Reset had begun when committed was read,
// hence c <= everything later FETCHed and s < c+leap <= fetched+leap, the
// edge every later wake starts at, all marked. The caller may stall from
// here on and land in a window a reset has since abandoned: that is s
// arriving just before the crash. (A committed read after the check could be
// the next life's, and s would be delivered into both windows.)
func (r *Receiver) admitFast(w *seqwin.Atomic, s uint64) (Verdict, bool) {
	c := r.committed.Load()
	if r.fastWin.Load() != w || s >= c+r.leap {
		return 0, false
	}
	d := w.Admit(s)
	v := verdictOf(d)
	if !d.Deliver() {
		// Deliveries are not counted here: the claim bit-flip inside the
		// window already recorded the event (seqwin.Atomic.Delivered), so
		// the fast path's delivery case costs no extra locked operation.
		r.tallies.AddSpread(s, tallyDiscarded, 1)
	}
	if d == seqwin.DecisionNew && r.due(s) {
		r.saveFromFastPath(s)
	}
	return v, true
}

// saveFromFastPath re-checks the SAVE trigger under the mutex and starts
// the background save. The fast path detects "edge advanced >= K" with a
// racy read of lst, so this slow step runs at most once per K admissions
// per concurrent admitter (startSave collapses the herd into one write).
func (r *Receiver) saveFromFastPath(edge uint64) {
	r.mu.Lock()
	if r.state != StateUp || !r.due(edge) {
		r.mu.Unlock()
		return
	}
	if e := r.win.Edge(); e > edge {
		edge = e // a concurrent admit advanced further; save the larger edge
	}
	gen := r.gen
	r.mu.Unlock()

	r.startSave(handoff{gen: gen, v: edge})
}

// admitSlow is the mutex-serialized admission path; it also backs the fast
// path's fallback cases (down/waking/horizon/superseded window).
func (r *Receiver) admitSlow(s uint64) Verdict {
	r.mu.Lock()
	if r.birth != 0 && r.state == StateUp {
		born, err := r.awaitBirthLocked()
		if err != nil {
			r.tallies.Add(tallyDiscarded, 1)
			r.mu.Unlock()
			return VerdictHorizon
		}
		if born && r.strict && r.ownWin {
			r.fastWin.Store(r.win.(*seqwin.Atomic)) // held back by NewReceiver
		}
	}
	switch r.state {
	case StateDown:
		r.mu.Unlock()
		return VerdictDown
	case StateWaking:
		if len(r.buffer) >= r.wakeBuffer {
			r.overflowed++
			r.mu.Unlock()
			return VerdictOverflow
		}
		r.buffer = append(r.buffer, s)
		r.mu.Unlock()
		return VerdictBuffered
	}
	return r.decideAndUnlock(s)
}

// decideAndUnlock decides s against the window of a receiver that is up.
// It is entered with mu held and releases it before starting any SAVE the
// decision triggered.
func (r *Receiver) decideAndUnlock(s uint64) Verdict {
	v, save, trigger := r.decideLocked(s)
	gen := r.gen
	r.mu.Unlock()

	if trigger {
		r.startSave(handoff{gen: gen, v: save})
	}
	return v
}

// decideLocked applies the window decision and reports the value of the
// SAVE it triggers, if any.
func (r *Receiver) decideLocked(s uint64) (v Verdict, save uint64, trigger bool) {
	if r.strict && s >= r.committed.Load()+r.leap {
		r.tallies.Add(tallyDiscarded, 1)
		// Extend the horizon: start a save of s itself so the stream
		// resumes one save-latency later (retransmissions or subsequent
		// packets then fall below the new horizon). Saving a value above
		// the current edge is safe — it only widens the post-reset
		// fresh-sacrifice window, exactly as the leap itself does.
		return VerdictHorizon, s, s > r.lst.Load()
	}
	d := r.win.Admit(s)
	v = verdictOf(d)
	if !v.Delivered() {
		r.tallies.Add(tallyDiscarded, 1)
	} else if !r.ownWin {
		// An owned Atomic window records its own deliveries as claim bits
		// (see admitFast); counting here too would double-count the
		// slow-path admits that land in the same window.
		r.tallies.Add(tallyDelivered, 1)
	}
	edge := r.win.Edge()
	return v, edge, r.due(edge)
}

// Reset crashes the receiver: window, counters and buffer are volatile and
// considered lost; any in-flight save is discarded.
func (r *Receiver) Reset() {
	r.reset(func() {
		// Unpublish the fast path first: admits that already loaded the
		// pointer finish against the superseded window (see the type
		// comment); new ones fall to the slow path and observe StateDown.
		r.fastWin.Store(nil)
		if r.ownWin && !r.harvested {
			// Fold the abandoned window's delivery tally into the receiver
			// counter before the wake installs a fresh window. A fast-path
			// admit still in flight against the old window can slip its
			// claim in after this harvest; its delivery then goes uncounted
			// — a bounded observability race on a crashing endpoint, never a
			// protocol one.
			r.tallies.Add(tallyDelivered, r.win.(*seqwin.Atomic).Delivered())
			r.harvested = true
		}
		r.buffer = nil
	})
}

// installLocked is the pipeline's install hook: it rebuilds the window at
// edge — after the leap with every entry marked received (paper: r :=
// fetched + 2Kq; every entry of wdw set to true), on a baseline wake
// cleared (§3: any previously used number is accepted again) — re-opens
// the fast path, and returns the step that decides the messages buffered
// during the wake, in arrival order.
//
// An owned window is replaced by a freshly allocated one — never mutated in
// place — because a fast-path admit that raced the preceding Reset may still
// be operating on the old object; the superseded window is simply abandoned
// to it, and never published again, which admitFast relies on. Other
// windows are reinitialized in place: they are only ever touched under mu.
func (r *Receiver) installLocked(edge uint64) func() {
	allSeen := r.k != 0
	if r.ownWin {
		w := seqwin.NewAtomicAt(r.width, edge, allSeen)
		r.win = w
		r.harvested = false // the fresh window starts a new delivery tally
		if r.strict {
			r.fastWin.Store(w)
		}
	} else {
		r.win.Reinit(edge, allSeen)
	}
	buf := r.buffer
	r.buffer = nil
	if len(buf) == 0 {
		return nil
	}
	return func() {
		for _, s := range buf {
			r.mu.Lock()
			v := r.decideAndUnlock(s)
			if r.drain != nil {
				r.drain(s, v)
			}
		}
	}
}

// Edge returns the anti-replay window's right edge (paper: r).
func (r *Receiver) Edge() uint64 {
	if w := r.fastWin.Load(); w != nil {
		return w.Edge() // atomic; no lock needed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.win.Edge()
}

// W returns the anti-replay window width.
func (r *Receiver) W() int { return r.width }

// Occupancy returns how many numbers inside (edge-w, edge] the window has
// marked seen, or -1 when the window implementation cannot report it. A
// full window right after a wake is the mark-all-seen reinstall; a sparse
// one under load betrays loss or reordering.
func (r *Receiver) Occupancy() int {
	if w := r.fastWin.Load(); w != nil {
		return w.Occupancy() // tag-checked scan; no lock needed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, ok := r.win.(seqwin.Occupier); ok {
		return o.Occupancy()
	}
	return -1
}

// ReceiverStats is a snapshot of receiver counters.
type ReceiverStats struct {
	Delivered    uint64
	Discarded    uint64
	SavesStarted uint64
	SavesOK      uint64
	SavesFailed  uint64
	Resets       uint64
	Overflowed   uint64
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	delivered := r.tallies.Value(tallyDelivered)
	if r.ownWin && !r.harvested {
		// The live window carries the current life's delivery tally; see
		// seqwin.Atomic.Delivered.
		delivered += r.win.(*seqwin.Atomic).Delivered()
	}
	return ReceiverStats{
		Delivered:    delivered,
		Discarded:    r.tallies.Value(tallyDiscarded),
		SavesStarted: r.savesStart.Load(),
		SavesOK:      r.savesOK,
		SavesFailed:  r.savesFailed,
		Resets:       r.resets,
		Overflowed:   r.overflowed,
	}
}
