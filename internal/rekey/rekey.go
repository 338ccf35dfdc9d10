// Package rekey orchestrates the lifecycle the rest of the repository only
// prices: IKE-driven SA rollover on a live gateway pair, under traffic and
// under resets.
//
// The paper's argument (§3) is that tearing down and re-establishing an SA
// after a reset is too expensive to be the remedy for lost counters — but
// SAs still age out by policy (RFC 4301 soft/hard lifetimes), so a
// production gateway must rekey *routinely*, and a reset can strike in the
// middle of that. This package composes the repository's layers into that
// scenario: it watches per-SA soft lifetimes (the atomic byte/packet/time
// accounting on each SA), runs the CREATE_CHILD_SA-style exchange of
// internal/ike (transcript-bound to the SPIs of the generation being
// replaced), and drives make-before-break rollover on both gateways:
//
//	steady ──soft lifetime / Rollover()──▶ rekeying
//	rekeying ──exchange ok──▶ install successor inbound on BOTH ends (make)
//	         ──exchange err─▶ retry next Poll (bounded by MaxAttempts)
//	install  ──────────────▶ cut outbound over on both ends (break)
//	cutover  ──────────────▶ draining (old inbound still verifies)
//	draining ──grace over──▶ retired: old SAs removed, journal cells
//	                         tombstoned and released
//
// Ordering is what makes the rollover safe against resets:
//
//   - The successor's counters are staged in the shared journal inside
//     RekeyInbound / RekeyOutbound before any cutover and are durable before
//     its first number, so a reset mid-rekey recovers both generations
//     through the ordinary wake-up leap — never replaying one generation's
//     numbers into the other.
//   - New inbound SAs are installed on both gateways before either outbound
//     cutover, so there is no instant at which a packet can be sealed that
//     its peer cannot verify (make-before-break).
//   - The old inbound SAs keep verifying through the drain window, so
//     packets sealed under the old SPI just before the cutover are still
//     delivered, not dropped.
//   - Retirement erases the old generation's journal cells with durable
//     tombstones, so a later SA that happens to reuse the SPI starts a
//     fresh counter life instead of resurrecting the retired window edge.
//
// The orchestrator is deliberately clock-explicit (Poll with an injectable
// clock) so simulations drive it deterministically; Run wraps Poll in a
// wall-clock ticker for live use.
package rekey

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
)

// Sentinel errors.
var (
	// ErrConfig reports an invalid orchestrator configuration.
	ErrConfig = errors.New("rekey: invalid configuration")
	// ErrUnknownTunnel reports a Track of SPIs not registered in the
	// gateways.
	ErrUnknownTunnel = errors.New("rekey: tunnel SAs not registered")
	// ErrRolloverInProgress reports a Rollover on a tunnel that is already
	// mid-rollover (draining its previous generation).
	ErrRolloverInProgress = errors.New("rekey: rollover already in progress")
	// ErrUnknownGateway reports a Handoff whose old gateway is neither of
	// the orchestrator's two.
	ErrUnknownGateway = errors.New("rekey: gateway not managed by this orchestrator")
)

// DefaultMaxAttempts bounds exchange retries per rollover trigger.
const DefaultMaxAttempts = 5

// State is a tunnel's position in the rollover lifecycle.
type State uint8

// Tunnel states.
const (
	// StateSteady means one live generation and no rollover in progress.
	StateSteady State = iota + 1
	// StateDraining means the successor generation carries traffic while
	// the old generation's inbound SAs linger for in-flight packets.
	StateDraining
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case StateSteady:
		return "steady"
	case StateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config parameterizes an Orchestrator.
type Config struct {
	// A and B are the two gateways of the tunnel population. A plays the
	// IKE initiator on every rollover; its A->B outbound direction is the
	// exchange's init->resp child SA. Required.
	A, B *ipsec.Gateway
	// IKEInit and IKEResp configure the rekey exchange parties (PSK,
	// randomness, DH group). Required unless Exchange is set.
	IKEInit, IKEResp ike.Config
	// Grace is the drain window between outbound cutover and retirement of
	// the old generation. Zero retires on the first Poll after cutover.
	Grace time.Duration
	// MaxAttempts bounds exchange retries per rollover trigger; once
	// exhausted the trigger is abandoned (a still-soft SA re-triggers on
	// the next Poll). Zero means DefaultMaxAttempts.
	MaxAttempts int
	// Clock feeds grace-window accounting. Nil means wall clock (monotonic
	// since the orchestrator was built); simulations inject virtual time.
	Clock func() time.Duration
	// Exchange overrides the key exchange — fault-injection hooks and
	// message-level deployments substitute their own delivery here. Nil
	// runs ike.RekeyChild(IKEInit, IKEResp, oldAB, oldBA) in process. The
	// returned keys' SPIInitToResp names the successor A->B SA.
	Exchange func(oldAB, oldBA uint32) (ike.ChildKeys, error)
	// Observer, when set, receives rollover lifecycle events: soft
	// triggers, exchange failures, cutovers, abandonments, retirements.
	// This is the timing surface the adversary campaign layer attacks
	// (internal/adversary.RekeyCut aims blackouts at EventCutover) and
	// operators monitor. The observer is called synchronously with the
	// orchestrator's lock held: it must be fast and must not call back
	// into the Orchestrator.
	Observer func(Event)
}

// EventKind classifies an orchestrator lifecycle event.
type EventKind uint8

// Lifecycle events, in the order a rollover produces them.
const (
	// EventSoftTrigger fires when Poll finds a soft-expired tunnel and
	// begins a rollover.
	EventSoftTrigger EventKind = iota + 1
	// EventExchangeFailed fires per failed exchange attempt.
	EventExchangeFailed
	// EventAbandoned fires when a trigger exhausts MaxAttempts.
	EventAbandoned
	// EventCutover fires once both outbound directions carry the
	// successor generation — the rollover window's most delicate instant.
	EventCutover
	// EventRetired fires when a drained old generation is removed.
	EventRetired
)

// String returns the lower-case event name.
func (k EventKind) String() string {
	switch k {
	case EventSoftTrigger:
		return "soft-trigger"
	case EventExchangeFailed:
		return "exchange-failed"
	case EventAbandoned:
		return "abandoned"
	case EventCutover:
		return "cutover"
	case EventRetired:
		return "retired"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one observable orchestrator transition.
type Event struct {
	// Kind classifies the transition.
	Kind EventKind
	// ABSPI and BASPI are the tunnel's live-generation SPIs at the time
	// of the event (for EventCutover, the successor generation's).
	ABSPI, BASPI uint32
	// Attempt is the exchange attempt count (EventExchangeFailed only).
	Attempt int
}

// Tunnel is one tracked gateway-to-gateway SA pair and its rollover state.
// All fields are guarded by the orchestrator's mutex; read them through the
// accessor methods.
type Tunnel struct {
	o *Orchestrator

	abSPI, baSPI uint32            // live generation, by direction
	outA         *ipsec.OutboundSA // A's outbound (A->B), live generation
	outB         *ipsec.OutboundSA // B's outbound (B->A)

	state        State
	oldAB, oldBA uint32 // draining generation (valid in StateDraining)
	drainFrom    time.Duration
	attempts     int
	generation   uint64
}

// SPIs returns the live generation's SPIs (A->B, B->A).
func (t *Tunnel) SPIs() (ab, ba uint32) {
	t.o.mu.Lock()
	defer t.o.mu.Unlock()
	return t.abSPI, t.baSPI
}

// State returns the tunnel's rollover state.
func (t *Tunnel) State() State {
	t.o.mu.Lock()
	defer t.o.mu.Unlock()
	return t.state
}

// Generation returns how many rollovers the tunnel has completed.
func (t *Tunnel) Generation() uint64 {
	t.o.mu.Lock()
	defer t.o.mu.Unlock()
	return t.generation
}

// Stats counts orchestrator activity.
type Stats struct {
	// SoftTriggers counts rollovers initiated by soft-lifetime expiry.
	SoftTriggers uint64
	// Rollovers counts completed cutovers (successor carrying traffic).
	Rollovers uint64
	// ExchangeFailures counts failed rekey exchange attempts.
	ExchangeFailures uint64
	// Abandoned counts triggers given up after MaxAttempts failures.
	Abandoned uint64
	// Retired counts old generations fully removed after their drain.
	Retired uint64
}

// Orchestrator watches tracked tunnels and rolls them over. Safe for
// concurrent use; rollovers serialize on the orchestrator while gateway
// traffic proceeds concurrently underneath.
type Orchestrator struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	tunnels []*Tunnel
	stats   Stats
}

// New validates cfg and returns an orchestrator with no tracked tunnels.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.A == nil || cfg.B == nil {
		return nil, fmt.Errorf("%w: both gateways required", ErrConfig)
	}
	if cfg.Exchange == nil {
		if err := cfg.IKEInit.Validate(); err != nil {
			return nil, fmt.Errorf("%w: initiator IKE: %v", ErrConfig, err)
		}
		if err := cfg.IKEResp.Validate(); err != nil {
			return nil, fmt.Errorf("%w: responder IKE: %v", ErrConfig, err)
		}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	o := &Orchestrator{cfg: cfg, start: time.Now()}
	return o, nil
}

func (o *Orchestrator) now() time.Duration {
	if o.cfg.Clock != nil {
		return o.cfg.Clock()
	}
	return time.Since(o.start)
}

// Track registers an established tunnel for lifecycle management: abSPI is
// the A->B direction (A outbound, B inbound), baSPI the reverse. All four
// SAs must already be registered in their gateways; the rollover replaces
// SPD entries in place (by SA identity), so no traffic selectors are
// needed here.
func (o *Orchestrator) Track(abSPI, baSPI uint32) (*Tunnel, error) {
	outA, okA := o.cfg.A.Outbound(abSPI)
	_, okBIn := o.cfg.B.SAD().Lookup(abSPI)
	outB, okB := o.cfg.B.Outbound(baSPI)
	_, okAIn := o.cfg.A.SAD().Lookup(baSPI)
	if !okA || !okB || !okBIn || !okAIn {
		return nil, fmt.Errorf("%w: A->B %#x, B->A %#x", ErrUnknownTunnel, abSPI, baSPI)
	}
	t := &Tunnel{
		o:     o,
		abSPI: abSPI, baSPI: baSPI,
		outA: outA, outB: outB,
		state: StateSteady,
	}
	o.mu.Lock()
	o.tunnels = append(o.tunnels, t)
	o.mu.Unlock()
	return t, nil
}

// emit delivers an event to the configured observer (lock held).
func (o *Orchestrator) emit(kind EventKind, t *Tunnel, attempt int) {
	if o.cfg.Observer == nil {
		return
	}
	o.cfg.Observer(Event{Kind: kind, ABSPI: t.abSPI, BASPI: t.baSPI, Attempt: attempt})
}

// exchange runs the configured (or default in-process) rekey exchange.
func (o *Orchestrator) exchange(oldAB, oldBA uint32) (ike.ChildKeys, error) {
	if o.cfg.Exchange != nil {
		return o.cfg.Exchange(oldAB, oldBA)
	}
	res, err := ike.RekeyChild(o.cfg.IKEInit, o.cfg.IKEResp, oldAB, oldBA)
	if err != nil {
		return ike.ChildKeys{}, err
	}
	return res.Keys, nil
}

// Rollover rolls t over to a fresh generation now: exchange, make (install
// successor inbound SAs on both gateways), break (cut both outbound sides
// over), then drain. A failed exchange leaves the tunnel steady (the
// attempt is counted; Poll retries soft-triggered tunnels); a tunnel whose
// previous generation is still draining is refused with
// ErrRolloverInProgress — retirement must finish first, because a second
// overlapping rollover would need a third concurrent inbound generation.
func (o *Orchestrator) Rollover(t *Tunnel) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rolloverLocked(t)
}

func (o *Orchestrator) rolloverLocked(t *Tunnel) error {
	if t.state != StateSteady {
		return fmt.Errorf("%w: A->B %#x", ErrRolloverInProgress, t.abSPI)
	}
	keys, err := o.exchange(t.abSPI, t.baSPI)
	if err != nil {
		o.stats.ExchangeFailures++
		t.attempts++
		o.emit(EventExchangeFailed, t, t.attempts)
		if t.attempts >= o.cfg.MaxAttempts {
			t.attempts = 0
			o.stats.Abandoned++
			o.emit(EventAbandoned, t, o.cfg.MaxAttempts)
		}
		return fmt.Errorf("rekey: exchange for A->B %#x: %w", t.abSPI, err)
	}
	t.attempts = 0

	// Make: both successor inbound SAs exist — and their window edges are
	// staged in the journals — before any cutover.
	if _, err := o.cfg.B.RekeyInbound(t.abSPI, keys.SPIInitToResp, keys.InitToResp); err != nil {
		return fmt.Errorf("rekey: install B inbound: %w", err)
	}
	if _, err := o.cfg.A.RekeyInbound(t.baSPI, keys.SPIRespToInit, keys.RespToInit); err != nil {
		o.cfg.B.RemoveInbound(keys.SPIInitToResp) // roll the half-install back
		return fmt.Errorf("rekey: install A inbound: %w", err)
	}

	// Break: cut the outbound sides over. From here new traffic flows on
	// the successor SPIs; the old outbound SAs refuse further seals.
	outA, err := o.cfg.A.RekeyOutbound(t.abSPI, keys.SPIInitToResp, keys.InitToResp)
	if err != nil {
		o.cfg.B.RemoveInbound(keys.SPIInitToResp)
		o.cfg.A.RemoveInbound(keys.SPIRespToInit)
		return fmt.Errorf("rekey: cut over A outbound: %w", err)
	}
	outB, err := o.cfg.B.RekeyOutbound(t.baSPI, keys.SPIRespToInit, keys.RespToInit)
	if err != nil {
		// A already cut over; unwind it completely — repoint A's SPD back
		// to the old SA (which resumes sealing) and remove every successor
		// SA — so the tunnel is exactly its old self and the next trigger
		// retries from scratch. (RekeyOutbound fails only on duplicate
		// SPIs or a closed gateway, but a partial cutover left standing
		// would orphan the successor: a later retry's SPD Replace matches
		// the old SA pointer and would repoint nothing.)
		o.cfg.A.RevertOutbound(t.abSPI, keys.SPIInitToResp)
		o.cfg.B.RemoveInbound(keys.SPIInitToResp)
		o.cfg.A.RemoveInbound(keys.SPIRespToInit)
		return fmt.Errorf("rekey: cut over B outbound: %w", err)
	}

	// The rollover is committed: mark the old inbound SAs draining (they
	// keep verifying; the mark drives the grace-window bookkeeping).
	if oldIn, ok := o.cfg.B.SAD().Lookup(t.abSPI); ok {
		oldIn.BeginDrain()
	}
	if oldIn, ok := o.cfg.A.SAD().Lookup(t.baSPI); ok {
		oldIn.BeginDrain()
	}

	t.oldAB, t.oldBA = t.abSPI, t.baSPI
	t.abSPI, t.baSPI = keys.SPIInitToResp, keys.SPIRespToInit
	t.outA, t.outB = outA, outB
	t.state = StateDraining
	t.drainFrom = o.now()
	t.generation++
	o.stats.Rollovers++
	o.emit(EventCutover, t, 0)
	return nil
}

// Handoff swaps one of the orchestrator's gateways for its cluster
// successor — the promotion hand-off that lets tunnel lifecycles, including
// an in-flight rollover, survive a failover. Every tracked tunnel's live
// outbound SAs are re-resolved by SPI against the new pair, so later
// rollovers and retirements act on the promoted gateway's (adopted) SAs
// instead of the dead node's. Tunnels draining a previous generation keep
// draining: retirement addresses the old SAs by SPI and tolerates any the
// standby's mirror missed. A rollover whose exchange was interrupted by the
// crash simply failed (its successor SAs never reached the snapshot); the
// tunnel is steady, still soft-expired, and the next Poll retries the whole
// exchange against the promoted gateway.
//
// Handoff fails with ErrUnknownGateway when old is neither managed gateway,
// and with ErrUnknownTunnel when a tunnel's live SA cannot be resolved in
// the new pair (the standby's mirror predates the tunnel's last cutover);
// no tunnel is repointed unless all can be.
func (o *Orchestrator) Handoff(old, nu *ipsec.Gateway) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	cfgA, cfgB := o.cfg.A, o.cfg.B
	switch old {
	case cfgA:
		cfgA = nu
	case cfgB:
		cfgB = nu
	default:
		return ErrUnknownGateway
	}
	// Resolve everything first, then commit: a half-repointed tunnel set
	// would leave the orchestrator acting on two generations of gateway.
	outA := make([]*ipsec.OutboundSA, len(o.tunnels))
	outB := make([]*ipsec.OutboundSA, len(o.tunnels))
	for i, t := range o.tunnels {
		a, okA := cfgA.Outbound(t.abSPI)
		b, okB := cfgB.Outbound(t.baSPI)
		if !okA || !okB {
			return fmt.Errorf("%w: A->B %#x, B->A %#x (mirror predates cutover?)",
				ErrUnknownTunnel, t.abSPI, t.baSPI)
		}
		outA[i], outB[i] = a, b
	}
	o.cfg.A, o.cfg.B = cfgA, cfgB
	for i, t := range o.tunnels {
		t.outA, t.outB = outA[i], outB[i]
	}
	return nil
}

// retireLocked removes the drained old generation: outbound and inbound SAs
// on both gateways, each removal tombstoning and releasing its journal cell.
func (o *Orchestrator) retireLocked(t *Tunnel) {
	o.cfg.A.RemoveOutbound(t.oldAB)
	o.cfg.B.RemoveInbound(t.oldAB)
	o.cfg.B.RemoveOutbound(t.oldBA)
	o.cfg.A.RemoveInbound(t.oldBA)
	t.oldAB, t.oldBA = 0, 0
	t.state = StateSteady
	o.stats.Retired++
	o.emit(EventRetired, t, 0)
}

// needsRekey reports whether either outbound direction has reached its soft
// lifetime. (Hard-expired SAs trigger too: rekeying is the only way they
// resume service.)
func needsRekey(t *Tunnel) bool {
	return t.outA.State() != ipsec.LifetimeOK || t.outB.State() != ipsec.LifetimeOK
}

// Poll advances every tracked tunnel's lifecycle one step: drained
// generations past the grace window are retired, and steady tunnels whose
// soft lifetime has expired are rolled over. It returns the first rollover
// error (later tunnels are still processed) — transient exchange failures
// surface here while the tunnel stays consistent and retries on the next
// Poll.
func (o *Orchestrator) Poll() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	var first error
	now := o.now()
	for _, t := range o.tunnels {
		switch t.state {
		case StateDraining:
			if now-t.drainFrom >= o.cfg.Grace {
				o.retireLocked(t)
			}
		case StateSteady:
			if !needsRekey(t) {
				continue
			}
			o.stats.SoftTriggers++
			o.emit(EventSoftTrigger, t, 0)
			if err := o.rolloverLocked(t); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Run polls on a wall-clock interval until the returned stop function is
// called. Poll errors are delivered to onErr (nil discards them) — the
// normal fate of a transient exchange failure is simply the next tick's
// retry.
func (o *Orchestrator) Run(interval time.Duration, onErr func(error)) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if err := o.Poll(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Stats returns a snapshot of the orchestrator's counters.
func (o *Orchestrator) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}
