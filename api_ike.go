package antireplay

import (
	"time"

	"antireplay/internal/dpd"
	"antireplay/internal/ike"
	"antireplay/internal/netsim"
)

// Key-exchange types, re-exported from the implementation.
type (
	// IKEConfig parameterizes one handshake party.
	IKEConfig = ike.Config
	// IKEGroup is a finite-field Diffie-Hellman group.
	IKEGroup = ike.Group
	// IKEStats accumulates handshake costs.
	IKEStats = ike.Stats
	// ChildKeys is the ESP keying a handshake produces.
	ChildKeys = ike.ChildKeys
	// EstablishResult summarizes a completed handshake.
	EstablishResult = ike.EstablishResult
)

// IKE errors.
var (
	// ErrIKEAuthFailed reports a failed AUTH verification.
	ErrIKEAuthFailed = ike.ErrAuthFailed
	// ErrIKEBadMessage reports a malformed handshake message.
	ErrIKEBadMessage = ike.ErrBadMessage
)

// EstablishSA runs a complete 4-message IKE handshake in memory — the cost
// the paper's SAVE/FETCH avoids after a reset.
func EstablishSA(initCfg, respCfg IKEConfig) (EstablishResult, error) {
	return ike.Establish(initCfg, respCfg)
}

// Dead-peer-detection types (§6), re-exported from the implementation.
type (
	// DPDConfig parameterizes a dead-peer monitor.
	DPDConfig = dpd.Config
	// DPDMonitor watches one peer's liveness.
	DPDMonitor = dpd.Monitor
	// PeerState is the monitor's belief about the peer.
	PeerState = dpd.PeerState
)

// Peer states.
const (
	PeerAlive   = dpd.StateAlive
	PeerProbing = dpd.StateProbing
	PeerDead    = dpd.StateDead
	PeerExpired = dpd.StateExpired
)

// NewDPDMonitor returns a monitor in the alive state with its idle timer
// armed.
func NewDPDMonitor(cfg DPDConfig) (*DPDMonitor, error) { return dpd.NewMonitor(cfg) }

// ResyncPayload builds the §6 "I am up" announcement payload.
func ResyncPayload() []byte { return dpd.ResyncPayload() }

// ProbePayload and AckPayload build the R-U-THERE exchange payloads.
func ProbePayload(seq uint64) []byte { return dpd.ProbePayload(seq) }

// AckPayload builds the acknowledgment for a probe.
func AckPayload(seq uint64) []byte { return dpd.AckPayload(seq) }

// ParseDPDPayload classifies a delivered control payload ("probe", "ack",
// "resync"); ok is false for ordinary data.
func ParseDPDPayload(p []byte) (kind string, probeSeq uint64, ok bool) {
	return dpd.ParsePayload(p)
}

// Simulation types for deterministic experiments and examples.
type (
	// Engine is the discrete-event virtual clock.
	Engine = netsim.Engine
	// LinkConfig sets a link's impairment model.
	LinkConfig = netsim.LinkConfig
	// Link is a unidirectional impaired channel.
	Link[T any] = netsim.Link[T]
	// LinkStats counts a link's impairment decisions.
	LinkStats = netsim.LinkStats
	// SimSaver models background SAVEs in virtual time with torn-save
	// semantics on reset.
	SimSaver = netsim.SimSaver
)

// NewEngine returns a deterministic discrete-event engine seeded with seed.
func NewEngine(seed int64) *Engine { return netsim.NewEngine(seed) }

// NewLink returns a link over engine delivering into deliver.
func NewLink[T any](engine *Engine, cfg LinkConfig, deliver func(T)) *Link[T] {
	return netsim.NewLink(engine, cfg, deliver)
}

// NewSimSaver returns a saver committing to st after saveDelay virtual time.
func NewSimSaver(engine *Engine, st Store, saveDelay time.Duration) *SimSaver {
	return netsim.NewSimSaver(engine, st, saveDelay)
}
