// Package dpd implements dead-peer detection and the paper's §6 prolonged-
// reset recovery flow.
//
// The paper's remark: a host that detects its peer is unreachable keeps the
// SAs alive for a bounded hold time instead of deleting them; when the reset
// peer wakes up it sends a *secured* "I am up" message whose sequence number
// (leaped by the SAVE/FETCH wake-up) necessarily exceeds the window's right
// edge, so the surviving host can distinguish a genuine resurrection from a
// replayed announcement — the attack that defeats the naive "let's both
// reset to 1" special message.
//
// Detection here is traffic-based in the style of draft-ietf-ipsec-dpd:
// inbound authenticated traffic proves liveness; after an idle timeout the
// monitor sends R-U-THERE probes and declares the peer dead after N
// unacknowledged probes. Timers run on the deterministic simulation engine.
//
// The monitor walks StateAlive -> StateProbing -> StateDead -> StateExpired:
// probing begins at the idle timeout, death is declared after MaxProbes
// unacknowledged probes, and expiry (the hold time's end, when a real
// implementation would finally delete the SAs) models the bound the paper
// places on how long a surviving host waits for its peer's resurrection.
// Any authenticated inbound traffic — data, ack, or the §6 resync message —
// snaps the monitor back to alive. The prolonged-reset experiment
// (internal/experiments, "prolonged") drives this state machine against
// scheduled outages to regenerate the §6 recovery-time analysis.
package dpd

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"antireplay/internal/netsim"
	"antireplay/internal/telemetry"
)

// PeerState is the monitor's belief about the peer.
type PeerState uint8

// Peer states.
const (
	// StateAlive means recent inbound traffic proves the peer up.
	StateAlive PeerState = iota + 1
	// StateProbing means the idle timeout expired and R-U-THERE probes are
	// outstanding.
	StateProbing
	// StateDead means MaxProbes probes went unacknowledged; SAs are kept
	// alive for the hold time (§6).
	StateDead
	// StateExpired means the hold time elapsed: the SAs should be deleted
	// and a fresh IKE negotiation is required (the expensive path).
	StateExpired
)

// String returns the lower-case state name.
func (s PeerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateProbing:
		return "probing"
	case StateDead:
		return "dead"
	case StateExpired:
		return "expired"
	default:
		return fmt.Sprintf("peerstate(%d)", uint8(s))
	}
}

// Config parameterizes a Monitor.
type Config struct {
	// Engine supplies virtual time and timers. Required.
	Engine *netsim.Engine
	// IdleTimeout is how long without inbound traffic before probing.
	// Required (> 0).
	IdleTimeout time.Duration
	// AckTimeout is how long to wait for each probe's acknowledgment.
	// Required (> 0).
	AckTimeout time.Duration
	// MaxProbes is how many unacknowledged probes declare the peer dead.
	// Zero means 3 (the draft's default behaviour of a few retries).
	MaxProbes int
	// HoldTime is how long SAs are kept alive after a dead declaration
	// before expiring (§6: bounded, "otherwise an adversary will have
	// enough time to apply cryptographic analysis"). Zero means no hold:
	// dead goes straight to expired.
	HoldTime time.Duration
	// SendProbe transmits an R-U-THERE probe with the given probe sequence
	// number; the transport (normally an outbound SA) is the caller's.
	// Required.
	SendProbe func(probeSeq uint64)
	// OnState, if non-nil, observes every state transition.
	OnState func(PeerState)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Engine == nil {
		return fmt.Errorf("dpd: Engine required")
	}
	if c.IdleTimeout <= 0 || c.AckTimeout <= 0 {
		return fmt.Errorf("dpd: IdleTimeout and AckTimeout must be positive")
	}
	if c.MaxProbes < 0 {
		return fmt.Errorf("dpd: MaxProbes must be >= 0")
	}
	if c.SendProbe == nil {
		return fmt.Errorf("dpd: SendProbe required")
	}
	return nil
}

// Monitor watches one peer. It is driven entirely by the simulation engine
// thread (not safe for concurrent use from other goroutines); the
// published state and the stats counters are atomics, so State, Stats and
// the telemetry collector MAY be read from any goroutine — a metrics
// scrape never has to stop the engine.
type Monitor struct {
	cfg   Config
	state PeerState
	epoch uint64 // invalidates stale timers
	probe uint64 // last probe sequence sent
	tries int

	pub        atomic.Uint32 // state mirror for cross-goroutine readers
	probesSent atomic.Uint64
	acks       atomic.Uint64
	deaths     atomic.Uint64
}

// NewMonitor validates cfg and returns a monitor in StateAlive with its
// idle timer armed.
func NewMonitor(cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxProbes == 0 {
		cfg.MaxProbes = 3
	}
	m := &Monitor{cfg: cfg, state: StateAlive}
	m.pub.Store(uint32(StateAlive))
	m.armIdle()
	return m, nil
}

// State returns the current belief about the peer. Readable from any
// goroutine.
func (m *Monitor) State() PeerState { return PeerState(m.pub.Load()) }

// Stats returns (probes sent, acks received, dead declarations). Readable
// from any goroutine.
func (m *Monitor) Stats() (probes, acks, deaths uint64) {
	return m.probesSent.Load(), m.acks.Load(), m.deaths.Load()
}

// CollectTelemetry emits the probe counters and the peer-state belief as
// a one-hot gauge set, scrape-safe against the engine thread.
func (m *Monitor) CollectTelemetry(emit telemetry.Emit) {
	probes, acks, deaths := m.Stats()
	emit("probes_sent_total", telemetry.KindCounter, float64(probes))
	emit("acks_total", telemetry.KindCounter, float64(acks))
	emit("deaths_total", telemetry.KindCounter, float64(deaths))
	cur := m.State()
	for _, s := range []PeerState{StateAlive, StateProbing, StateDead, StateExpired} {
		v := 0.0
		if s == cur {
			v = 1
		}
		emit("peer_state", telemetry.KindGauge, v,
			telemetry.Label{Key: "state", Value: s.String()})
	}
}

func (m *Monitor) setState(s PeerState) {
	if m.state == s {
		return
	}
	m.state = s
	m.pub.Store(uint32(s))
	if m.cfg.OnState != nil {
		m.cfg.OnState(s)
	}
}

func (m *Monitor) armIdle() {
	epoch := m.epoch
	m.cfg.Engine.After(m.cfg.IdleTimeout, func() {
		if m.epoch != epoch || m.state != StateAlive {
			return
		}
		m.startProbing()
	})
}

func (m *Monitor) startProbing() {
	m.setState(StateProbing)
	m.tries = 0
	m.sendProbe()
}

func (m *Monitor) sendProbe() {
	m.probe++
	m.tries++
	m.probesSent.Add(1)
	m.cfg.SendProbe(m.probe)
	epoch := m.epoch
	probe := m.probe
	m.cfg.Engine.After(m.cfg.AckTimeout, func() {
		if m.epoch != epoch || m.state != StateProbing || m.probe != probe {
			return
		}
		if m.tries >= m.cfg.MaxProbes {
			m.declareDead()
			return
		}
		m.sendProbe()
	})
}

func (m *Monitor) declareDead() {
	m.deaths.Add(1)
	m.setState(StateDead)
	epoch := m.epoch
	if m.cfg.HoldTime <= 0 {
		m.setState(StateExpired)
		return
	}
	m.cfg.Engine.After(m.cfg.HoldTime, func() {
		if m.epoch != epoch || m.state != StateDead {
			return
		}
		m.setState(StateExpired)
	})
}

// NoteInbound records authenticated inbound traffic: proof of life. In
// StateDead (within the hold time) this is the §6 resurrection: the peer's
// secured, leaped-sequence message revives the SA without renegotiation.
// In StateExpired it is ignored — the SAs are gone and only IKE can help.
func (m *Monitor) NoteInbound() {
	if m.state == StateExpired {
		return
	}
	m.epoch++ // cancel outstanding timers
	m.setState(StateAlive)
	m.armIdle()
}

// NoteAck records an R-U-THERE-ACK for the given probe number. Stale acks
// (for earlier probes) still prove liveness — any authenticated traffic
// does — so they are treated as NoteInbound.
func (m *Monitor) NoteAck(probeSeq uint64) {
	if m.state == StateExpired {
		return
	}
	m.acks.Add(1)
	m.NoteInbound()
	_ = probeSeq
}

// Probe payload helpers: the R-U-THERE exchange and the §6 "I am up"
// resynchronization announcement travel as secured payloads inside ESP, so
// they inherit integrity and anti-replay protection from the SA.
const (
	payloadRUThere    = "DPD/R-U-THERE/"
	payloadRUThereAck = "DPD/ACK/"
	payloadResync     = "DPD/I-AM-UP"
)

// ProbePayload builds an R-U-THERE payload. Probes fire on every
// hold-timer tick across the whole SA population, so the payload is built
// with a direct append instead of fmt machinery.
func ProbePayload(probeSeq uint64) []byte {
	return strconv.AppendUint([]byte(payloadRUThere), probeSeq, 10)
}

// AckPayload builds the acknowledgment for a probe payload.
func AckPayload(probeSeq uint64) []byte {
	return strconv.AppendUint([]byte(payloadRUThereAck), probeSeq, 10)
}

// ResyncPayload builds the §6 "I am up" announcement.
func ResyncPayload() []byte { return []byte(payloadResync) }

// ParsePayload classifies a delivered control payload. kind is "probe",
// "ack", or "resync"; ok is false for ordinary data.
func ParsePayload(p []byte) (kind string, probeSeq uint64, ok bool) {
	s := string(p)
	switch {
	case len(s) > len(payloadRUThere) && s[:len(payloadRUThere)] == payloadRUThere:
		if _, err := fmt.Sscanf(s[len(payloadRUThere):], "%d", &probeSeq); err != nil {
			return "", 0, false
		}
		return "probe", probeSeq, true
	case len(s) > len(payloadRUThereAck) && s[:len(payloadRUThereAck)] == payloadRUThereAck:
		if _, err := fmt.Sscanf(s[len(payloadRUThereAck):], "%d", &probeSeq); err != nil {
			return "", 0, false
		}
		return "ack", probeSeq, true
	case s == payloadResync:
		return "resync", 0, true
	default:
		return "", 0, false
	}
}
