package core

import (
	"fmt"

	"antireplay/internal/seqwin"
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
	// W is the width of the seqwin.Bitmap window the receiver builds when
	// Window is nil. Defaults to 64.
	W int
	// Window overrides the window implementation. The receiver drives every
	// window, its own and a caller-supplied one alike, under its mutex and
	// reinstalls it in place on wake. The paper's Bool array comes in here
	// as the test oracle.
	Window seqwin.Window
	// Concurrent is ignored: every receiver is safe for concurrent use and
	// decides under its mutex.
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
	// concurrent admitters or an in-process Reset is promised only with it;
	// without it the receiver is the paper's process q as printed and
	// inherits the paper's timing assumption K >= ceil(T_save / T_send).
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
// concurrent use: every admission decides under the pipeline's mutex, as
// the paper's q is one serialized process, and only the SAVE hand-off runs
// outside it. The window is reinstalled in place on wake.
//
// Locking discipline: state, win, buffer and the counters are guarded by
// mu. The pipeline's lst and committed are atomics read without it.
type Receiver struct {
	savePipeline
	width      int  // window width (immutable)
	strict     bool // cfg.StrictHorizon && !cfg.Baseline
	wakeBuffer int  // cap on buffer
	drain      func(seq uint64, v Verdict)

	// Guarded by mu.
	win        seqwin.Window
	buffer     []uint64 // messages held during StateWaking
	overflowed uint64
	delivered  uint64
	discarded  uint64
}

// NewReceiver validates cfg and returns a receiver: up at edge 0 over an
// empty store (lst "initially 0", staged or saved; see savePipeline.open)
// or with Baseline set, born StateDown — every Admit is VerdictDown — over
// a store a prior life used. Call Wake after it either way: a no-op if up.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	win := cfg.Window
	if win == nil {
		w := cfg.W
		if w == 0 {
			w = 64
		}
		win = seqwin.NewBitmap(w)
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
	return r, nil
}

// Admit runs the paper's receive action for sequence number s: decide
// against the window, then start a background SAVE if the edge advanced K
// past the last saved value. While the machine is down the message is
// unobserved (VerdictDown); while waking it is buffered for the Drain
// callback (VerdictBuffered) or dropped if the buffer is full
// (VerdictOverflow). A staged first life's first call waits for its birth
// (see savePipeline.open) and discards s as VerdictHorizon if that fails.
func (r *Receiver) Admit(s uint64) Verdict {
	r.mu.Lock()
	if r.birth != 0 && r.state == StateUp {
		if err := r.awaitBirthLocked(); err != nil {
			r.discarded++
			r.mu.Unlock()
			return VerdictHorizon
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
		r.discarded++
		// Extend the horizon: start a save of s itself so the stream
		// resumes one save-latency later (retransmissions or subsequent
		// packets then fall below the new horizon). Saving a value above
		// the current edge is safe — it only widens the post-reset
		// fresh-sacrifice window, exactly as the leap itself does.
		return VerdictHorizon, s, s > r.lst.Load()
	}
	v = verdictOf(r.win.Admit(s))
	if v.Delivered() {
		r.delivered++
	} else {
		r.discarded++
	}
	edge := r.win.Edge()
	return v, edge, r.due(edge)
}

// Reset crashes the receiver: window, counters and buffer are volatile and
// considered lost; any in-flight save is discarded.
func (r *Receiver) Reset() {
	r.reset(func() { r.buffer = nil })
}

// installLocked is the pipeline's install hook: it reinstalls the window
// at edge — after the leap with every entry marked received (paper: r :=
// fetched + 2Kq; every entry of wdw set to true), on a baseline wake
// cleared (§3: any previously used number is accepted again) — and returns
// the step that decides the messages buffered during the wake, in arrival
// order.
func (r *Receiver) installLocked(edge uint64) func() {
	r.win.Reinit(edge, r.k != 0)
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
	return ReceiverStats{
		Delivered:    r.delivered,
		Discarded:    r.discarded,
		SavesStarted: r.savesStart.Load(),
		SavesOK:      r.savesOK,
		SavesFailed:  r.savesFailed,
		Resets:       r.resets,
		Overflowed:   r.overflowed,
	}
}
