package core

import "antireplay/internal/store"

// SenderConfig configures a Sender.
type SenderConfig struct {
	// K is the paper's Kp: a background SAVE starts whenever the counter
	// has advanced K past the last value handed to a SAVE. Required (>= 1)
	// unless Baseline is set.
	K uint64
	// LeapFactor scales the post-wake leap: leap = ceil(LeapFactor*K).
	// Zero means DefaultLeapFactor (the paper's 2). Negative values disable
	// the leap entirely (ablation only; unsafe).
	LeapFactor float64
	// Store is the durable cell holding the saved counter. Required unless
	// Baseline is set.
	Store store.Store
	// Saver executes background SAVEs. Nil means synchronous saves through
	// Store (SyncSaver).
	Saver BackgroundSaver
	// Baseline selects the §2 protocol: no SAVE/FETCH, and a wake-up
	// restarts the counter at 1 — the configuration whose failure modes §3
	// demonstrates.
	Baseline bool
	// AblationSkipPostWakeSave resumes immediately after FETCH+leap without
	// waiting for the synchronous post-wake SAVE, dropping the paper's §4
	// "second consideration" protection. UNSAFE — a second reset before the
	// next save then reuses sequence numbers. For ablation experiments only.
	AblationSkipPostWakeSave bool
	// StrictHorizon enforces the invariant "every handed-out sequence
	// number < committed+leap" by refusing sends (ErrSaveLag) once the
	// counter reaches the durable horizon. This strengthens the paper:
	// the no-reuse guarantee then holds even when K is undersized for the
	// medium — the failure mode becomes bounded backpressure instead of
	// silent sequence reuse. With K sized per §4 (SizeK) the horizon is
	// never hit and behaviour is identical to the paper's protocol.
	StrictHorizon bool
}

// Validate reports configuration errors.
func (c SenderConfig) Validate() error {
	return validateSaveConfig(c.Baseline, c.K, c.Store)
}

// Sender is the paper's process p: it hands out increasing sequence numbers
// and maintains the durable counter through SAVE/FETCH (the embedded
// pipeline). Safe for concurrent use.
type Sender struct {
	savePipeline
	strict bool // cfg.StrictHorizon && !cfg.Baseline

	// Guarded by mu.
	s    uint64 // next sequence number to hand out (paper: s)
	sent uint64
}

// NewSender validates cfg and returns a sender: up at 1 over an empty store
// (the paper's lst "initially 1", staged or saved; see savePipeline.open)
// or with Baseline set, born StateDown over a store a prior life used. Call
// Wake after it either way: it is a no-op on a sender that is up.
func NewSender(cfg SenderConfig) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := &Sender{
		savePipeline: savePipeline{
			role: "sender", initial: 1, k: cfg.K, leap: configuredLeap(cfg.K, cfg.LeapFactor),
			store: cfg.Store, saver: cfg.Saver,
			skipPostWakeSave: cfg.AblationSkipPostWakeSave,
		},
		strict: cfg.StrictHorizon && !cfg.Baseline,
		s:      1,
	}
	x.install = func(v uint64) func() { x.s = v; return nil }
	if err := x.open(cfg.Baseline); err != nil {
		return nil, err
	}
	return x, nil
}

// Next returns the sequence number for the next outgoing message,
// implementing the paper's first action of process p: emit s, increment,
// and start a background SAVE once the counter has advanced K past lst.
// It returns ErrDown or ErrWaking while the endpoint cannot send and, under
// StrictHorizon, ErrSaveLag once the counter has reached the durable
// horizon. Reserve, horizon check and SAVE trigger are one critical section.
// A staged first life's first call waits for its birth (see open) and
// returns the medium's error, wrapped, if that fails.
func (x *Sender) Next() (uint64, error) {
	x.mu.Lock()
	if x.birth != 0 && x.state == StateUp {
		if err := x.awaitBirthLocked(); err != nil {
			x.mu.Unlock()
			return 0, err
		}
	}
	switch x.state {
	case StateDown:
		x.mu.Unlock()
		return 0, ErrDown
	case StateWaking:
		x.mu.Unlock()
		return 0, ErrWaking
	}
	if x.strict && x.s >= x.committed.Load()+x.leap {
		x.mu.Unlock()
		return 0, ErrSaveLag
	}
	seq := x.s
	x.s++
	x.sent++
	save := handoff{gen: x.gen, v: x.s}
	trigger := x.due(x.s)
	x.mu.Unlock()

	if trigger {
		x.startSave(save)
	}
	return seq, nil
}

// Reset crashes the sender: all volatile state is considered lost and any
// in-flight save is discarded (the write never reached the medium).
func (x *Sender) Reset() { x.reset(nil) }

// Seq returns the next sequence number to be handed out (paper: s).
func (x *Sender) Seq() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.s
}

// SenderStats is a snapshot of sender counters.
type SenderStats struct {
	Sent         uint64
	SavesStarted uint64
	SavesOK      uint64
	SavesFailed  uint64
	Resets       uint64
}

// Stats returns a snapshot of the sender's counters.
func (x *Sender) Stats() SenderStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return SenderStats{
		Sent:         x.sent,
		SavesStarted: x.savesStart.Load(),
		SavesOK:      x.savesOK,
		SavesFailed:  x.savesFailed,
		Resets:       x.resets,
	}
}
