package wire

import "sync"

// GateVerdict classifies one datagram at the gate.
type GateVerdict uint8

// Gate verdicts.
const (
	// GatePass transmits the datagram immediately.
	GatePass GateVerdict = iota
	// GateDrop discards the datagram silently (targeted loss — on a real
	// network the sender cannot tell this from congestion).
	GateDrop
	// GateHold queues the datagram until Release — the adversary's
	// delay/reorder primitive: held traffic re-enters the path later, by
	// which time the receiver's window edge has moved.
	GateHold
)

// GateFunc decides a datagram's fate. A nil gate passes everything.
type GateFunc func(p []byte) GateVerdict

// GateStats counts the gate's interference.
type GateStats struct {
	// Passed, Dropped, and Held count Send classifications.
	Passed, Dropped, Held uint64
	// Released counts held datagrams later transmitted by Release.
	Released uint64
	// HeldDropped counts held datagrams discarded by DropHeld or Close.
	HeldDropped uint64
	// Injected counts Inject calls (the adversary's own transmissions).
	Injected uint64
}

// GateLink is programmable drop/hold middleware over any Link: every
// datagram handed to Send is classified by the installed GateFunc as
// pass, drop, or hold, and held datagrams accumulate until the
// controller releases them. Unlike a simulated link's seeded randomness
// (netsim.LinkConfig), the gate is *scheduled* interference — the actuator
// the adversary campaign layer (internal/adversary) drives to aim drops and
// reorders at protocol-significant moments: window edges, SAVE cadence,
// rekey cutovers, failover blackouts.
//
// GateLink carries the adversary hooks across transports: Tap is the
// wiretap position (sees every datagram handed to Send, before the gate
// decides), and Inject transmits bypassing taps and the gate.
type GateLink struct {
	inner Link

	mu     sync.Mutex
	gate   GateFunc
	taps   []func([]byte)
	held   [][]byte
	gstats GateStats
}

// NewGateLink wraps inner with an open gate (everything passes until
// SetGate installs a decider).
func NewGateLink(inner Link) *GateLink { return &GateLink{inner: inner} }

// SetGate installs (or, with nil, removes) the decider. Safe to call
// while traffic is flowing — campaign phases swap deciders mid-run.
func (l *GateLink) SetGate(fn GateFunc) {
	l.mu.Lock()
	l.gate = fn
	l.mu.Unlock()
}

// Tap registers fn at the wiretap position.
func (l *GateLink) Tap(fn func(p []byte)) {
	l.mu.Lock()
	l.taps = append(l.taps, fn)
	l.mu.Unlock()
}

// Send taps p, asks the gate, and transmits, queues, or drops it.
func (l *GateLink) Send(p []byte) error {
	l.mu.Lock()
	taps := l.taps
	gate := l.gate
	l.mu.Unlock()
	// Taps and the gate run outside the lock: both may call back into
	// the link (Inject, Release — the tap->inject shape), which takes
	// l.mu itself.
	for _, tap := range taps {
		tap(p)
	}
	verdict := GatePass
	if gate != nil {
		verdict = gate(p)
	}
	switch verdict {
	case GateDrop:
		l.count(func(s *GateStats) { s.Dropped++ })
		return nil
	case GateHold:
		l.mu.Lock()
		l.held = append(l.held, append([]byte(nil), p...)) // p is the caller's again once Send returns
		l.gstats.Held++
		l.mu.Unlock()
		return nil
	default:
		l.count(func(s *GateStats) { s.Passed++ })
		return l.inner.Send(p)
	}
}

// Release transmits up to n held datagrams in hold order (n < 0 means
// all) and returns how many went out.
func (l *GateLink) Release(n int) int {
	l.mu.Lock()
	if n < 0 || n > len(l.held) {
		n = len(l.held)
	}
	batch := l.held[:n:n]
	l.held = l.held[n:]
	l.gstats.Released += uint64(n)
	l.mu.Unlock()
	for _, p := range batch {
		l.inner.Send(p) //nolint:errcheck // released traffic is fire-and-forget like Send survivors
	}
	return n
}

// DropHeld discards all held datagrams and returns how many.
func (l *GateLink) DropHeld() int {
	l.mu.Lock()
	n := len(l.held)
	l.held = nil
	l.gstats.HeldDropped += uint64(n)
	l.mu.Unlock()
	return n
}

// HeldCount returns how many datagrams the gate is holding.
func (l *GateLink) HeldCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held)
}

// Inject transmits p directly: no taps, no gate. It satisfies
// adversary.Injector[[]byte]; when the inner link has its own Inject
// (impairment or simulation below the gate), injection bypasses that
// layer too — the adversary controls its own transmissions end to end.
func (l *GateLink) Inject(p []byte) {
	l.count(func(s *GateStats) { s.Injected++ })
	if inj, ok := l.inner.(Injector); ok {
		inj.Inject(p)
		return
	}
	l.inner.Send(p) //nolint:errcheck // the adversary gets no delivery report
}

func (l *GateLink) count(f func(*GateStats)) {
	l.mu.Lock()
	f(&l.gstats)
	l.mu.Unlock()
}

// GateStats returns the interference counters.
func (l *GateLink) GateStats() GateStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gstats
}

// Recv delegates to the inner link.
func (l *GateLink) Recv() ([]byte, error) { return l.inner.Recv() }

// OnRecv delegates inline delivery when the inner link supports it.
func (l *GateLink) OnRecv(h Handler) {
	if ir, ok := l.inner.(InlineReceiver); ok {
		ir.OnRecv(h)
	}
}

// Close discards held datagrams and closes the inner link.
func (l *GateLink) Close() error {
	l.DropHeld()
	return l.inner.Close()
}

// Stats returns the inner link's counters (the gate's own are in
// GateStats).
func (l *GateLink) Stats() Stats { return l.inner.Stats() }

var (
	_ Link     = (*GateLink)(nil)
	_ Tapper   = (*GateLink)(nil)
	_ Injector = (*GateLink)(nil)
)
