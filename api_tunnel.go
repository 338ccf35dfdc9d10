package antireplay

import (
	"antireplay/internal/ipsec"
	"antireplay/internal/tunnel"
)

// Host-level association types, re-exported from the implementation.
type (
	// Peer is one host's bidirectional endpoint: outbound + inbound SA,
	// host-level Reset/Wake with automatic §6 resynchronization and DPD
	// integration.
	Peer = tunnel.Peer
	// PeerConfig parameterizes a Peer.
	PeerConfig = tunnel.Config
	// StoreFactory builds the durable cell for a (SPI, direction) pair.
	StoreFactory = tunnel.StoreFactory
)

// Tunnel errors.
var (
	// ErrNoTransport reports a Send with no transport configured.
	ErrNoTransport = tunnel.ErrNoTransport
	// ErrNotRecovered reports an announcement attempted before the
	// post-wake SAVE finished.
	ErrNotRecovered = tunnel.ErrNotRecovered
)

// NewPeerPair runs one IKE handshake and returns two connected peers; the
// couplers (nil = direct in-process delivery) can interpose a simulated or
// real network.
func NewPeerPair(aCfg, bCfg PeerConfig, initCfg, respCfg IKEConfig,
	aToB, bToA func(wire []byte, deliver func([]byte))) (*Peer, *Peer, error) {
	return tunnel.Pair(aCfg, bCfg, initCfg, respCfg, aToB, bToA)
}

// compile-time check that the tunnel types interoperate with the ipsec
// aliases exposed elsewhere in this package.
var _ = func() *ipsec.OutboundSA { var p tunnel.Peer; return p.Outbound() }
