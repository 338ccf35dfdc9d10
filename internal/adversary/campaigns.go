package adversary

import (
	"fmt"
	"sync"

	"antireplay/internal/wire"
)

// ---------------------------------------------------------------------------
// Campaign (a): window-edge sniping.

// SnipeConfig parameterizes a WindowEdgeSnipe.
type SnipeConfig struct {
	// SeqOf extracts the victim counter from a datagram; nil uses ESPSeq.
	// Datagrams it rejects (control traffic) pass untouched.
	SeqOf func(p []byte) (uint64, bool)
	// HoldEvery holds back every N-th data packet (default 16) — sparse
	// enough to read as jitter, not an outage.
	HoldEvery int
	// HoldDepth releases a held packet only after HoldDepth newer packets
	// have passed (default 96). The released packet lands HoldDepth
	// behind the receiver's window edge: just inside a window wider than
	// HoldDepth (delivered late), just OUTSIDE a narrower one (stale,
	// discarded — goodput the victim silently loses).
	HoldDepth int
	// DupEvery, when > 0, injects a copy of every M-th passed packet: an
	// edge-adjacent duplicate the receiver's window must reject.
	DupEvery int
}

// SnipeStats counts the snipe's activity.
type SnipeStats struct {
	// Observed counts data packets the gate classified; Edge is the
	// highest sequence number seen on the wire.
	Observed, Edge uint64
	// Held and Released count reorder hostages taken and freed.
	Held, Released uint64
	// DupsInjected counts edge-adjacent duplicates injected.
	DupsInjected uint64
}

// WindowEdgeSnipe aims reorders and duplicates just inside the
// receiver's anti-replay window edge, tracked live from the wiretap: it
// delays one packet in HoldEvery by exactly HoldDepth packets, so
// whether that traffic survives is decided entirely by the victim's
// window width — the defense knob this campaign prices.
type WindowEdgeSnipe struct {
	phase
	cfg  SnipeConfig
	gate *wire.GateLink

	mu    sync.Mutex
	holds []uint64 // Observed value at each GateHold, FIFO
	st    SnipeStats
}

// NewWindowEdgeSnipe builds the campaign; Arm splices it into a path.
func NewWindowEdgeSnipe(cfg SnipeConfig) *WindowEdgeSnipe {
	if cfg.SeqOf == nil {
		cfg.SeqOf = ESPSeq
	}
	if cfg.HoldEvery <= 0 {
		cfg.HoldEvery = 16
	}
	if cfg.HoldDepth <= 0 {
		cfg.HoldDepth = 96
	}
	return &WindowEdgeSnipe{cfg: cfg}
}

// Name identifies the campaign in tables and flags.
func (c *WindowEdgeSnipe) Name() string { return "window_edge" }

// Arm installs the campaign as h.Gate's decider.
func (c *WindowEdgeSnipe) Arm(h Hooks) error {
	if h.Gate == nil {
		return fmt.Errorf("adversary: %s: gate required", c.Name())
	}
	c.gate = h.Gate
	h.Gate.SetGate(c.decide)
	return nil
}

func (c *WindowEdgeSnipe) decide(p []byte) wire.GateVerdict {
	seq, ok := c.cfg.SeqOf(p)
	if !ok {
		return wire.GatePass
	}
	c.mu.Lock()
	c.st.Observed++
	if seq > c.st.Edge {
		c.st.Edge = seq
	}
	// A hostage whose delay has matured re-enters the path now, landing
	// HoldDepth behind the edge.
	release := len(c.holds) > 0 && c.st.Observed-c.holds[0] >= uint64(c.cfg.HoldDepth)
	if release {
		c.holds = c.holds[1:]
		c.st.Released++
	}
	hold := c.attacking() && c.st.Observed%uint64(c.cfg.HoldEvery) == 0
	if hold {
		c.holds = append(c.holds, c.st.Observed)
		c.st.Held++
	}
	dup := !hold && c.attacking() && c.cfg.DupEvery > 0 &&
		c.st.Observed%uint64(c.cfg.DupEvery) == 0
	if dup {
		c.st.DupsInjected++
	}
	c.mu.Unlock()

	if release {
		c.gate.Release(1)
	}
	if hold {
		return wire.GateHold
	}
	if dup {
		c.gate.Inject(append([]byte(nil), p...))
	}
	return wire.GatePass
}

// Deactivate closes the attack window and frees remaining hostages (a
// stealth attacker leaves no queue behind to be found).
func (c *WindowEdgeSnipe) Deactivate() {
	c.phase.Deactivate()
	if c.gate != nil {
		n := c.gate.Release(-1)
		c.mu.Lock()
		c.holds = nil
		c.st.Released += uint64(n)
		c.mu.Unlock()
	}
}

// Stats returns a snapshot of the campaign counters.
func (c *WindowEdgeSnipe) Stats() SnipeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// ---------------------------------------------------------------------------
// Campaign (b): SAVE-storm timing.

// StormConfig parameterizes a SaveStorm.
type StormConfig struct {
	// SeqOf extracts the victim counter; nil uses ESPSeq.
	SeqOf func(p []byte) (uint64, bool)
	// K is the victim's SAVE interval as the attacker estimates it — the
	// receiver's durable horizon advances in steps of K, so loss placed
	// against that cadence is worth more than random loss. Required.
	K uint64
	// BurstLen drops the packets whose sequence numbers fall in
	// [mK-BurstLen, mK) for every m: the strike zone just below each
	// SAVE boundary. The receiver's delivered edge parks BurstLen+1
	// short of the boundary, so its durable state trails the traffic by
	// a maximal margin — a crash now costs the widest sacrifice the
	// protocol allows. Default K/8 (min 1).
	BurstLen uint64
}

// StormStats counts the storm's activity.
type StormStats struct {
	// Observed counts data packets classified; Dropped counts strike-zone
	// drops; LastSeq is the latest sequence number seen.
	Observed, Dropped, LastSeq uint64
}

// SaveStorm synchronizes loss bursts to the observed SAVE-trigger
// cadence so the durable horizon lags maximally. Its goodput cost is
// bounded (BurstLen per K packets); the damage it buys is the *reset*
// cost, which the adaptive-K defense knob shrinks.
type SaveStorm struct {
	phase
	cfg StormConfig

	mu sync.Mutex
	st StormStats
}

// NewSaveStorm builds the campaign.
func NewSaveStorm(cfg StormConfig) (*SaveStorm, error) {
	if cfg.K == 0 {
		return nil, fmt.Errorf("adversary: save_storm: K required")
	}
	if cfg.SeqOf == nil {
		cfg.SeqOf = ESPSeq
	}
	if cfg.BurstLen == 0 {
		cfg.BurstLen = cfg.K / 8
		if cfg.BurstLen == 0 {
			cfg.BurstLen = 1
		}
	}
	if cfg.BurstLen >= cfg.K {
		return nil, fmt.Errorf("adversary: save_storm: BurstLen %d must be < K %d (a stealth attack is not an outage)",
			cfg.BurstLen, cfg.K)
	}
	return &SaveStorm{cfg: cfg}, nil
}

// Name identifies the campaign.
func (c *SaveStorm) Name() string { return "save_storm" }

// Arm installs the campaign as h.Gate's decider.
func (c *SaveStorm) Arm(h Hooks) error {
	if h.Gate == nil {
		return fmt.Errorf("adversary: %s: gate required", c.Name())
	}
	h.Gate.SetGate(c.decide)
	return nil
}

func (c *SaveStorm) decide(p []byte) wire.GateVerdict {
	seq, ok := c.cfg.SeqOf(p)
	if !ok {
		return wire.GatePass
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Observed++
	c.st.LastSeq = seq
	if c.attacking() && seq%c.cfg.K >= c.cfg.K-c.cfg.BurstLen {
		c.st.Dropped++
		return wire.GateDrop
	}
	return wire.GatePass
}

// Parked reports whether the victim is currently at the storm's point of
// maximal damage: the sender has reached the strike zone below a SAVE
// boundary, so everything since the last boundary that the receiver
// delivered is ahead of its durable horizon. A reset timed now (the
// attacker can often cause or predict one) maximizes the wake sacrifice.
func (c *SaveStorm) Parked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.LastSeq%c.cfg.K >= c.cfg.K-c.cfg.BurstLen
}

// Stats returns a snapshot of the campaign counters.
func (c *SaveStorm) Stats() StormStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// ---------------------------------------------------------------------------
// Campaign (c): rekey-cutover resets.

// RekeyCutConfig parameterizes a RekeyCut.
type RekeyCutConfig struct {
	// SuppressExchanges eats this many rekey exchange attempts outright —
	// the off-path attacker dropping IKE messages it can aim at (rekey
	// traffic is bursty and well-timed, easy to recognize).
	SuppressExchanges int
	// BlackoutPackets drops this many data packets immediately after each
	// observed cutover — a link reset timed against the rollover window,
	// when both generations' state is in motion.
	BlackoutPackets int
}

// RekeyCutStats counts the campaign's activity.
type RekeyCutStats struct {
	// Suppressed counts exchange attempts eaten; Cutovers counts rollover
	// cutovers observed; BlackoutDrops counts post-cutover packet drops.
	Suppressed, Cutovers, BlackoutDrops uint64
}

// RekeyCut times interference against rekey.Orchestrator rollover
// windows: it suppresses the first SuppressExchanges exchange attempts
// (wired into the orchestrator's Exchange hook via SuppressExchange) and
// fires a BlackoutPackets link reset at each cutover (wired into the
// orchestrator's Observer via OnCutover). Make-before-break is the
// defense it prices: the old generation must carry traffic through every
// suppressed retry, and bounded retry (MaxAttempts) must converge the
// rollover once suppression is exhausted.
type RekeyCut struct {
	phase
	cfg RekeyCutConfig

	mu           sync.Mutex
	suppressed   int
	blackoutLeft int
	st           RekeyCutStats
}

// NewRekeyCut builds the campaign.
func NewRekeyCut(cfg RekeyCutConfig) *RekeyCut { return &RekeyCut{cfg: cfg} }

// Name identifies the campaign.
func (c *RekeyCut) Name() string { return "rekey_cutover" }

// Arm installs the blackout decider on h.Gate.
func (c *RekeyCut) Arm(h Hooks) error {
	if h.Gate == nil {
		return fmt.Errorf("adversary: %s: gate required", c.Name())
	}
	h.Gate.SetGate(c.decide)
	return nil
}

func (c *RekeyCut) decide([]byte) wire.GateVerdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blackoutLeft > 0 {
		c.blackoutLeft--
		c.st.BlackoutDrops++
		return wire.GateDrop
	}
	return wire.GatePass
}

// SuppressExchange reports whether the adversary eats this exchange
// attempt's messages; the harness consults it from the orchestrator's
// Exchange hook. Suppression stops after SuppressExchanges attempts —
// holding IKE down forever is an outage, not a stealth campaign.
func (c *RekeyCut) SuppressExchange() bool {
	if !c.attacking() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.suppressed >= c.cfg.SuppressExchanges {
		return false
	}
	c.suppressed++
	c.st.Suppressed++
	return true
}

// OnCutover arms the post-cutover blackout; wire it to the rollover
// observer (rekey.Config.Observer, EventCutover).
func (c *RekeyCut) OnCutover() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Cutovers++
	if c.attacking() {
		c.blackoutLeft = c.cfg.BlackoutPackets
	}
}

// Stats returns a snapshot of the campaign counters.
func (c *RekeyCut) Stats() RekeyCutStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// ---------------------------------------------------------------------------
// Campaign (d): failover-blackout replay floods.

// BlackoutFloodConfig parameterizes a BlackoutFlood.
type BlackoutFloodConfig struct {
	// MaxBurst bounds the flood to the most recent N recorded datagrams;
	// 0 floods the entire recording (the §3 catastrophe's shape).
	MaxBurst int
}

// BlackoutFloodStats counts the campaign's activity.
type BlackoutFloodStats struct {
	// Recorded counts wiretapped datagrams; Floods counts takeover
	// windows attacked; Flooded counts datagrams injected.
	Recorded, Floods, Flooded uint64
}

// BlackoutFlood records the victim's traffic and injects it as a burst
// during the failover takeover wake window — the instant a standby wakes
// from replicated counters and its windows are at their most freshly
// reinitialized. The zero-replay SLO must hold even then; what the flood
// actually prices is the wake window's false-reject bill.
type BlackoutFlood struct {
	phase
	cfg  BlackoutFloodConfig
	rec  *Recorder[[]byte]
	gate *wire.GateLink

	mu sync.Mutex
	st BlackoutFloodStats
}

// NewBlackoutFlood builds the campaign.
func NewBlackoutFlood(cfg BlackoutFloodConfig) *BlackoutFlood {
	return &BlackoutFlood{cfg: cfg, rec: NewRecorder[[]byte]()}
}

// Name identifies the campaign.
func (c *BlackoutFlood) Name() string { return "blackout_flood" }

// Arm attaches the recording wiretap. The gate passes traffic untouched
// (this campaign's weapon is the recording, not drops).
func (c *BlackoutFlood) Arm(h Hooks) error {
	if h.Gate == nil {
		return fmt.Errorf("adversary: %s: gate required", c.Name())
	}
	c.gate = h.Gate
	tapFn := c.rec.Tap()
	h.tap(func(p []byte) {
		tapFn(append([]byte(nil), p...))
		c.mu.Lock()
		c.st.Recorded++
		c.mu.Unlock()
	})
	return nil
}

// OnTakeover floods the recording into the path; wire it to the cluster
// promotion hook (cluster.Config.OnPromote), which fires inside the
// takeover wake window.
func (c *BlackoutFlood) OnTakeover(uint64) {
	if !c.attacking() {
		return
	}
	msgs := c.rec.Messages()
	if c.cfg.MaxBurst > 0 && len(msgs) > c.cfg.MaxBurst {
		msgs = msgs[len(msgs)-c.cfg.MaxBurst:]
	}
	c.mu.Lock()
	c.st.Floods++
	c.st.Flooded += uint64(len(msgs))
	c.mu.Unlock()
	for _, m := range msgs {
		c.gate.Inject(m)
	}
}

// Stats returns a snapshot of the campaign counters.
func (c *BlackoutFlood) Stats() BlackoutFloodStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

var (
	_ Campaign = (*WindowEdgeSnipe)(nil)
	_ Campaign = (*SaveStorm)(nil)
	_ Campaign = (*RekeyCut)(nil)
	_ Campaign = (*BlackoutFlood)(nil)
)
