package adversary

import "sync"

// Each campaign is built over the gate of the path it attacks before that
// gate carries traffic, installs itself as the gate's one decider, and
// runs at the one parameterization the campaigns table prices. Its
// counters are guarded by its mutex while traffic flows; read them once
// traffic has stopped.

// ---------------------------------------------------------------------------
// Campaign (a): window-edge sniping.

// The snipe holds back every snipeHoldEvery-th data packet (sparse enough
// to read as jitter, not an outage) until snipeHoldDepth newer packets
// have passed, and injects a copy of every snipeDupEvery-th packet it
// passes: an edge-adjacent duplicate the receiver's window must reject.
const (
	snipeHoldEvery = 16
	snipeHoldDepth = 96
	snipeDupEvery  = 10
)

// WindowEdgeSnipe aims reorders and duplicates just inside the receiver's
// anti-replay window edge. A released hostage lands snipeHoldDepth behind
// the edge: inside a wider window (delivered late), just OUTSIDE a
// narrower one (stale, discarded — goodput the victim silently loses). So
// whether that traffic survives is decided entirely by the victim's
// window width, the defense knob this campaign prices.
type WindowEdgeSnipe struct {
	phase
	gate *Gate

	mu       sync.Mutex
	observed uint64   // data packets classified
	holds    []uint64 // observed at each hold, FIFO
	// Held and Dups count the hostages taken and the duplicates injected.
	Held, Dups uint64
}

// NewWindowEdgeSnipe builds the campaign over g.
func NewWindowEdgeSnipe(g *Gate) *WindowEdgeSnipe {
	c := &WindowEdgeSnipe{gate: g}
	g.decide = c.decide
	return c
}

func (c *WindowEdgeSnipe) decide(p []byte) verdict {
	if _, ok := espSeq(p); !ok {
		return pass
	}
	c.mu.Lock()
	c.observed++
	// A hostage whose delay has matured re-enters the path now.
	release := len(c.holds) > 0 && c.observed-c.holds[0] >= snipeHoldDepth
	if release {
		c.holds = c.holds[1:]
	}
	held := c.attacking() && c.observed%snipeHoldEvery == 0
	if held {
		c.holds = append(c.holds, c.observed)
		c.Held++
	}
	dup := !held && c.attacking() && c.observed%snipeDupEvery == 0
	if dup {
		c.Dups++
	}
	c.mu.Unlock()

	if release {
		c.gate.Release(1)
	}
	if held {
		return hold
	}
	if dup {
		c.gate.Inject(p)
	}
	return pass
}

// Deactivate closes the attack window and frees the remaining hostages (a
// stealth attacker leaves no queue behind to be found).
func (c *WindowEdgeSnipe) Deactivate() {
	c.phase.Deactivate()
	c.gate.Release(-1)
	c.mu.Lock()
	c.holds = nil
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Campaign (b): SAVE-storm timing.

// SaveStorm synchronizes loss bursts to the SAVE cadence so the durable
// horizon lags maximally. The receiver's horizon advances in steps of K,
// so loss placed against that cadence is worth more than random loss: the
// storm drops the K/8 (at least one) sequence numbers just below each
// multiple of K, the strike zone under each SAVE boundary, and the
// receiver's delivered edge parks short of the boundary. Its goodput cost is bounded
// (K/8 per K packets); the damage it buys is the *reset* cost, which the
// adaptive-K defense knob shrinks.
type SaveStorm struct {
	phase
	k, burst uint64

	mu   sync.Mutex
	last uint64 // latest sequence number seen
	// Dropped counts strike-zone drops.
	Dropped uint64
}

// NewSaveStorm builds the campaign over g against the victim's SAVE
// interval k (at least 2), as the attacker estimates it.
func NewSaveStorm(g *Gate, k uint64) *SaveStorm {
	c := &SaveStorm{k: k, burst: max(k/8, 1)}
	g.decide = c.decide
	return c
}

func (c *SaveStorm) decide(p []byte) verdict {
	seq, ok := espSeq(p)
	if !ok {
		return pass
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = seq
	if c.attacking() && c.inZone(seq) {
		c.Dropped++
		return drop
	}
	return pass
}

func (c *SaveStorm) inZone(seq uint64) bool { return seq%c.k >= c.k-c.burst }

// Parked reports whether the victim is at the storm's point of maximal
// damage: the sender has reached the strike zone below a SAVE boundary, so
// everything the receiver delivered since the last boundary is ahead of
// its durable horizon. A reset timed now (the attacker can often cause or
// predict one) maximizes the wake sacrifice.
func (c *SaveStorm) Parked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inZone(c.last)
}

// ---------------------------------------------------------------------------
// Campaign (c): rekey-cutover resets.

// The cut eats the first rekeyCutSuppress exchange attempts of its attack
// window — holding IKE down forever is an outage, not a stealth campaign —
// and drops rekeyCutBlackout data packets after each cutover it sees then.
const (
	rekeyCutSuppress = 6
	rekeyCutBlackout = 48
)

// RekeyCut times interference against rekey.Orchestrator rollover
// windows: the off-path attacker drops the IKE messages it can aim at
// (rekey traffic is bursty and well-timed, easy to recognize) through
// SuppressExchange, wired into the orchestrator's Exchange hook, and a
// link reset timed against the rollover, when both generations' state is
// in motion, through OnCutover, wired into its OnCutover hook.
// Make-before-break is the defense it prices: the old generation must
// carry traffic through every suppressed retry, and bounded retry
// (MaxAttempts) must converge the rollover once suppression is exhausted.
type RekeyCut struct {
	phase

	mu           sync.Mutex
	blackoutLeft int
	// Suppressed counts exchange attempts eaten; Blackout counts
	// post-cutover packet drops.
	Suppressed, Blackout uint64
}

// NewRekeyCut builds the campaign over g.
func NewRekeyCut(g *Gate) *RekeyCut {
	c := &RekeyCut{}
	g.decide = c.decide
	return c
}

func (c *RekeyCut) decide([]byte) verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blackoutLeft > 0 {
		c.blackoutLeft--
		c.Blackout++
		return drop
	}
	return pass
}

// SuppressExchange reports whether the adversary eats this exchange
// attempt's messages.
func (c *RekeyCut) SuppressExchange() bool {
	if !c.attacking() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Suppressed >= rekeyCutSuppress {
		return false
	}
	c.Suppressed++
	return true
}

// OnCutover arms the post-cutover blackout while the attack window is
// open.
func (c *RekeyCut) OnCutover() {
	if !c.attacking() {
		return
	}
	c.mu.Lock()
	c.blackoutLeft = rekeyCutBlackout
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Campaign (d): failover-blackout replay floods.

// floodBurst bounds a flood to the most recent datagrams recorded.
const floodBurst = 256

// BlackoutFlood records the victim's traffic and injects its most recent
// floodBurst datagrams as a burst during the failover takeover wake window
// — the instant a standby wakes from replicated counters and its windows
// are at their most freshly reinitialized. The zero-replay SLO must hold
// even then; what the flood actually prices is the wake window's
// false-reject bill. Its weapon is the recording, not drops: its decider
// passes everything.
type BlackoutFlood struct {
	phase
	gate *Gate

	mu        sync.Mutex
	recording [][]byte
	// Recorded counts wiretapped datagrams; Flooded counts datagrams
	// injected.
	Recorded, Flooded uint64
}

// NewBlackoutFlood builds the campaign over g.
func NewBlackoutFlood(g *Gate) *BlackoutFlood {
	c := &BlackoutFlood{gate: g}
	g.decide = c.decide
	return c
}

func (c *BlackoutFlood) decide(p []byte) verdict {
	c.mu.Lock()
	c.recording = append(c.recording, append([]byte(nil), p...))
	c.Recorded++
	c.mu.Unlock()
	return pass
}

// OnTakeover floods the recording into the path while the attack window
// is open; wire it to the cluster promotion hook (cluster.Config.OnPromote),
// which fires inside the takeover wake window.
func (c *BlackoutFlood) OnTakeover() {
	if !c.attacking() {
		return
	}
	c.mu.Lock()
	burst := c.recording[max(len(c.recording)-floodBurst, 0):]
	c.Flooded += uint64(len(burst))
	c.mu.Unlock()
	for _, p := range burst {
		c.gate.Inject(p)
	}
}
