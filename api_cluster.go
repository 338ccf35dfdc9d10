package antireplay

import (
	"antireplay/internal/cluster"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// High-availability cluster types, re-exported from the implementation.
type (
	// Standby replicates a primary gateway's journal into a local one and
	// keeps a warm, down-state gateway image ready for epoch-fenced
	// promotion (Takeover — the paper's wake-up run against the replica).
	Standby = cluster.Standby
	// StandbyConfig configures a Standby.
	StandbyConfig = cluster.Config
	// ReplicationStats reports a standby's replication progress: applied
	// records and the instantaneous lag in records.
	ReplicationStats = cluster.ReplicationStats
	// JournalTail is a cursor over one lane's committed record stream —
	// the shipping half of journal replication (snapshot-then-tail).
	JournalTail = store.Tail
	// TailRecord is one committed journal record as seen by a tail.
	TailRecord = store.TailRecord
	// GatewaySnapshot is a gateway's control-plane state (SA population,
	// keys, lineage, and the SPD in order), the input to Standby.Mirror.
	GatewaySnapshot = ipsec.GatewaySnapshot
	// SASnapshot describes one SA, either way, within a GatewaySnapshot.
	SASnapshot = ipsec.SASnapshot
	// PolicySnapshot is one SPD entry within a GatewaySnapshot: a selector
	// and the SPI of the outbound SA it seals on.
	PolicySnapshot = ipsec.PolicySnapshot
)

// Cluster and replication errors.
var (
	// ErrFenced reports a write to a journal fenced off by a promotion, or
	// a replication attachment to a deposed primary (see ErrClusterFenced
	// for the stream-level variant).
	ErrFenced = store.ErrFenced
	// ErrClusterFenced reports a replication stream refused because its
	// source's epoch is below the local journal's.
	ErrClusterFenced = cluster.ErrFenced
	// ErrPromoted reports use of a standby that has already taken over.
	ErrPromoted = cluster.ErrPromoted
)

// NewStandby builds a cluster standby: the tail is attached to the source
// journal as its sync follower (the primary's saves then
// complete only once the standby has applied them — replication becomes
// part of the durability contract), and a warm gateway image is created
// over the follower journal. Call Start to begin replication, Mirror to
// keep the SA population in sync with the primary's Gateway.Snapshot, and
// Takeover to promote: fence the source, drain the stream, bump the epoch,
// and wake every SA from its replicated counter.
func NewStandby(cfg StandbyConfig) (*Standby, error) { return cluster.NewStandby(cfg) }
