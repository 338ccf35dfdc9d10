// Package adversary is the attacker's position on one direction of a
// path: a Gate every datagram the sender transmits crosses, and the
// stealth-DoS campaigns of Herzberg & Shulman that decide at it — low-rate,
// well-timed interference that never breaks the channel's cryptography and
// still degrades it.
//
// The adversary is Dolev-Yao-restricted to replay: it cannot forge message
// contents (the SA's integrity key prevents that), only observe, drop,
// delay, and re-insert copies of messages it has seen — "an adversary can
// insert in the message stream from p to q a copy of any message t that was
// sent earlier by p" (§2). A campaign has three powers at its gate:
//
//   - the wiretap: its decider sees every datagram handed to Send,
//     including ones it then drops;
//   - the gate: drop or hold *chosen* datagrams, not random ones — loss
//     aimed at window edges, SAVE cadence, cutovers — and Release held
//     ones later;
//   - injection (Inject): transmit recorded copies, bypassing the decider.
//
// Everything a campaign decides is computed from bytes it could see on a
// real wire — ESP sequence numbers are cleartext — plus protocol knowledge
// (the SAVE interval K, the cutovers and takeovers it is told of); nothing
// peeks at victim internals. A campaign built over a gate observes from
// the start and interferes only between Activate and Deactivate, so its
// intelligence (window edges, cadence) is warm when its phase opens.
//
// The paper's own replay-only adversary, recording a simulated link and
// replaying it after a wake, is experiments.Flow's wiretap.
package adversary

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// verdict is a decider's classification of one datagram.
type verdict uint8

const (
	// pass delivers the datagram now.
	pass verdict = iota
	// drop discards it silently (targeted loss — on a real network the
	// sender cannot tell this from congestion).
	drop
	// hold queues a copy until Release: the delay/reorder primitive, whose
	// traffic re-enters the path after the receiver's window edge moved.
	hold
)

// Gate is the adversary's position on one direction of a path: Send asks
// the decider of the campaign built over the gate (none passes everything)
// whether to deliver, drop or hold each datagram. It is safe for
// concurrent senders; the decider runs outside the gate's lock, so it may
// call Release and Inject; and the caller may reuse p once Send returns.
type Gate struct {
	deliver func(p []byte)
	decide  func(p []byte) verdict

	mu   sync.Mutex
	held [][]byte
}

// NewGate returns a gate that hands what it lets through to deliver, on
// the goroutine that sent, released or injected it.
func NewGate(deliver func(p []byte)) *Gate { return &Gate{deliver: deliver} }

// Send puts p through the decider and delivers, drops or holds it.
func (g *Gate) Send(p []byte) {
	v := pass
	if g.decide != nil {
		v = g.decide(p)
	}
	switch v {
	case pass:
		g.deliver(p)
	case hold:
		g.mu.Lock()
		g.held = append(g.held, append([]byte(nil), p...))
		g.mu.Unlock()
	}
}

// Release delivers up to n held datagrams in hold order (n < 0 means all)
// and returns how many went out.
func (g *Gate) Release(n int) int {
	g.mu.Lock()
	if n < 0 || n > len(g.held) {
		n = len(g.held)
	}
	batch := g.held[:n:n]
	g.held = g.held[n:]
	g.mu.Unlock()
	for _, p := range batch {
		g.deliver(p)
	}
	return n
}

// Inject delivers p past the decider: the adversary controls its own
// transmissions.
func (g *Gate) Inject(p []byte) { g.deliver(p) }

// phase is the activation latch every campaign embeds.
type phase struct{ active atomic.Bool }

// Activate opens the campaign's attack window.
func (p *phase) Activate() { p.active.Store(true) }

// Deactivate closes it; the campaign keeps observing.
func (p *phase) Deactivate() { p.active.Store(false) }

func (p *phase) attacking() bool { return p.active.Load() }

// espSeq reads the low 32 bits of an ESP datagram's sequence number from
// its cleartext header (SPI, then sequence number): the campaign's view of
// the victim's counter. It reports false for datagrams shorter than that
// header.
func espSeq(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return uint64(binary.BigEndian.Uint32(p[4:8])), true
}
