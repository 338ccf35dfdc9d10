package adversary

import (
	"sync/atomic"

	"antireplay/internal/ipsec"
	"antireplay/internal/wire"
)

// This file is the campaign engine: the step from the paper's replay-only
// adversary (Recorder/Replayer, random link loss) to the stealth-DoS
// attacker of Herzberg & Shulman — low-rate, well-timed interference that
// never breaks the channel's cryptography and still degrades it. A
// Campaign composes three powers over a victim wire.Link:
//
//   - the wiretap (wire.Tapper): observe every datagram the sender
//     transmits, including ones the network then loses;
//   - the gate (wire.GateLink): drop or delay *chosen* datagrams, not
//     random ones — loss aimed at window edges, SAVE cadence, cutovers;
//   - injection (wire.Injector): transmit recorded copies, bypassing the
//     victim's own impairment.
//
// Campaigns are armed once against a path and then activated in timed
// phases (the harness schedules Activate/Deactivate on its clock).
// Everything a campaign decides is computed from bytes
// it could see on a real wire — ESP sequence numbers are cleartext — plus
// protocol knowledge (the SAVE interval K, rollover events it can detect
// by SPI changes); nothing peeks at victim internals.

// Hooks bundles the adversary's access to one direction of a victim
// path. Gate is required (it is both the actuator and, via its taps, the
// default wiretap).
type Hooks struct {
	// Gate is the drop/hold/inject actuator spliced into the victim path.
	Gate *wire.GateLink
	// Tap overrides the wiretap registration; nil uses Gate.Tap.
	Tap func(fn func(p []byte))
}

func (h Hooks) tap(fn func(p []byte)) {
	if h.Tap != nil {
		h.Tap(fn)
		return
	}
	h.Gate.Tap(fn)
}

// Campaign is one named, armable attack. Arm splices the campaign into
// the victim path (taps, gate decider); an armed campaign stays inert —
// observing, not interfering — until Activate, so its intelligence
// (window edges, cadence) is warm when its phase window opens.
type Campaign interface {
	Name() string
	Arm(h Hooks) error
	Activate()
	Deactivate()
}

// phase is the shared activation latch campaigns embed.
type phase struct{ active atomic.Bool }

// Activate opens the campaign's attack window.
func (p *phase) Activate() { p.active.Store(true) }

// Deactivate closes it; the campaign keeps observing.
func (p *phase) Deactivate() { p.active.Store(false) }

func (p *phase) attacking() bool { return p.active.Load() }

// ESPSeq extracts the low 32 bits of a sealed ESP datagram's sequence
// number — cleartext on the wire, the campaign's view of the victim's
// counter. Reports false for datagrams too short to be ESP (control
// traffic, keepalives).
func ESPSeq(p []byte) (uint64, bool) {
	seq, err := ipsec.ParseSeqLo(p)
	if err != nil {
		return 0, false
	}
	return uint64(seq), true
}
