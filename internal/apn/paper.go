// Package apn holds the paper's processes p and q, written in its Abstract
// Protocol Notation (Gouda, "Elements of Network Protocol Design") as
// guarded actions, both the §2 baseline and the §4 SAVE/FETCH versions.
// They are the oracle the production endpoints in internal/core are
// differentially tested against.
//
// Each guarded action is one method. A method whose guard is false changes
// nothing and reports false, so a test drives any interleaving of actions by
// calling methods in that order. The §4 processes keep a durable cell (the
// persistent memory) and model the background SAVE as a separate Save
// action: once a SAVE has been started it is enabled until it executes, but
// a scheduler may delay it arbitrarily, which is exactly the timing window
// analysed in Figures 1 and 2. A Reset clears the pending save: the write
// never reached the medium (torn save). Wake performs FETCH and the
// synchronous SAVE atomically, as one guarded action, exactly as specified.
package apn

import "antireplay/internal/seqwin"

// PaperSender is process p. With Resilient it is the §4 version (SAVE/FETCH,
// constants Kp and leap 2Kp); otherwise the §2 original whose wake-up
// restarts at s = 1 (§3).
type PaperSender struct {
	// S is the paper's s: the next sequence number to send, initially 1.
	S uint64
	// Lst is the paper's lst: the last value handed to SAVE, initially 1.
	Lst uint64
	// Wait is the paper's wait flag: true between reset and wake-up.
	Wait bool
	// K is the paper's Kp.
	K uint64
	// Resilient selects the §4 process over the §2 baseline.
	Resilient bool

	cell
}

// cell is a process's persistent memory and the background SAVE in flight.
type cell struct {
	durable    uint64
	durableSet bool
	pending    *uint64
}

// Durable returns the persistent cell's value.
func (c *cell) Durable() (uint64, bool) { return c.durable, c.durableSet }

// SavePending reports whether a background SAVE is in flight.
func (c *cell) SavePending() bool { return c.pending != nil }

// Save is the background SAVE's commit, enabled once a SAVE has started.
func (c *cell) Save() bool {
	if c.pending == nil {
		return false
	}
	c.durable, c.durableSet = *c.pending, true
	c.pending = nil
	return true
}

// startSave is the paper's "& SAVE(v)": v is written in the background.
func (c *cell) startSave(v uint64) { c.pending = &v }

// NewPaperSender returns process p. For the resilient version the
// persistent cell starts at 1, matching lst's initial value (the
// SA-establishment save).
func NewPaperSender(k uint64, resilient bool) *PaperSender {
	p := &PaperSender{S: 1, Lst: 1, K: k, Resilient: resilient}
	if resilient {
		p.durable, p.durableSet = 1, true
	}
	return p
}

// Send is "~wait -> send msg(s) to q; s := s+1; if s >= Kp+lst -> lst := s
// & SAVE(s) fi". It returns the number sent.
func (p *PaperSender) Send() (uint64, bool) {
	if p.Wait {
		return 0, false
	}
	s := p.S
	p.S++
	if p.Resilient && p.S >= p.K+p.Lst {
		p.Lst = p.S
		p.startSave(p.S)
	}
	return s, true
}

// Reset is "(process p is reset) -> wait := true"; the in-flight write is
// torn.
func (p *PaperSender) Reset() {
	p.Wait = true
	p.pending = nil
}

// Wake is "(process p wakes up after a reset) -> FETCH(s); SAVE(s+2Kp);
// s := s+2Kp; lst := s; wait := false". The baseline forgets its counter and
// resumes with s = 1 (§3).
func (p *PaperSender) Wake() bool {
	if !p.Wait {
		return false
	}
	p.Wait = false
	if !p.Resilient {
		p.S, p.Lst = 1, 1
		return true
	}
	p.durable += 2 * p.K
	p.S, p.Lst = p.durable, p.durable
	return true
}

// PaperReceiver is process q. With Resilient it is the §4 version;
// otherwise the §2 original whose wake-up restarts with r = 0 and a cleared
// window (§3).
type PaperReceiver struct {
	// Wdw is the paper's window wdw with its right edge r (Wdw.Edge()),
	// initially every entry true and r = 0.
	Wdw *seqwin.Bool
	// Lst is the paper's lst: last value handed to SAVE, initially 0.
	Lst uint64
	// Wait is the paper's wait flag.
	Wait bool
	// K is the paper's Kq.
	K uint64
	// Resilient selects the §4 process over the §2 baseline.
	Resilient bool

	cell
}

// NewPaperReceiver returns process q with window width w (>= 1). For the
// resilient version the persistent cell starts at 0, matching lst's initial
// value.
func NewPaperReceiver(w int, k uint64, resilient bool) *PaperReceiver {
	q := &PaperReceiver{Wdw: seqwin.NewBool(w), K: k, Resilient: resilient}
	q.durableSet = resilient
	return q
}

// Rcv is "~wait, rcv msg(s) from p -> the three-case window decision; if
// r >= Kq+lst -> lst := r & SAVE(r) fi". It reports whether s was
// delivered. A machine that is down (or mid-wake, which in the notation is
// atomic) does not receive.
func (q *PaperReceiver) Rcv(s uint64) (delivered, ok bool) {
	if q.Wait {
		return false, false
	}
	delivered = q.Wdw.Admit(s).Deliver()
	if r := q.Wdw.Edge(); q.Resilient && r >= q.K+q.Lst {
		q.Lst = r
		q.startSave(r)
	}
	return delivered, true
}

// Reset is "(process q is reset) -> wait := true"; the in-flight write is
// torn.
func (q *PaperReceiver) Reset() {
	q.Wait = true
	q.pending = nil
}

// Wake is "(process q wakes up after a reset) -> FETCH(r); SAVE(r+2Kq);
// r := r+2Kq; lst := r; do i <= w -> wdw[i] := true od; wait := false". The
// baseline resumes with r = 0 and every entry false (§3).
func (q *PaperReceiver) Wake() bool {
	if !q.Wait {
		return false
	}
	q.Wait = false
	if !q.Resilient {
		q.Wdw.Reinit(0, false)
		return true
	}
	q.durable += 2 * q.K
	q.Lst = q.durable
	q.Wdw.Reinit(q.durable, true)
	return true
}
