package antireplay

import (
	"antireplay/internal/ike"
	"antireplay/internal/rekey"
)

// Rekey orchestration types, re-exported from the implementation.
type (
	// RekeyOrchestrator watches tracked tunnels between two gateways and
	// performs IKE-driven make-before-break SA rollover: install successor
	// inbound SAs (counters staged first), cut outbound traffic over,
	// drain the old generation behind a grace window, then retire it and
	// tombstone its journal cells.
	RekeyOrchestrator = rekey.Orchestrator
	// RekeyConfig configures a RekeyOrchestrator.
	RekeyConfig = rekey.Config
	// RekeyTunnel is one tracked SA pair and its rollover state.
	RekeyTunnel = rekey.Tunnel
	// RekeyStats counts orchestrator activity.
	RekeyStats = rekey.Stats
	// RekeyState is a tunnel's rollover lifecycle state.
	RekeyState = rekey.State
)

// Tunnel rollover states.
const (
	RekeySteady   = rekey.StateSteady
	RekeyDraining = rekey.StateDraining
)

// Rekey errors.
var (
	// ErrRekeyUnknownTunnel reports a Track of SPIs not registered in the
	// gateways.
	ErrRekeyUnknownTunnel = rekey.ErrUnknownTunnel
	// ErrRolloverInProgress reports a Rollover while the previous
	// generation is still draining.
	ErrRolloverInProgress = rekey.ErrRolloverInProgress
	// ErrIKERekeyBinding reports a rekey exchange bound to a different SA
	// pair than the party was configured to roll over.
	ErrIKERekeyBinding = ike.ErrRekeyBinding
)

// NewRekeyOrchestrator validates cfg and returns an orchestrator with no
// tracked tunnels; see RekeyConfig for the knobs (gateways, IKE
// configurations, grace window, retry budget, clock).
func NewRekeyOrchestrator(cfg RekeyConfig) (*RekeyOrchestrator, error) {
	return rekey.New(cfg)
}
