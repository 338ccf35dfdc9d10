package antireplay

import (
	"antireplay/internal/wire"
)

// Wire-layer types, re-exported from the implementation. A WireLink is the
// transport-neutral datagram pipe the tunnel, DPD, and rekey layers ride:
// the same interface is implemented by the deterministic simulator
// (NewSimLinkPair) and real UDP-encapsulated sockets (ListenWireUDP).
type (
	// WireLink is one direction-pair of a datagram transport.
	WireLink = wire.Link
	// WireStats counts a link's traffic.
	WireStats = wire.Stats
	// SimWireLink is a wire.Link over the deterministic simulator.
	SimWireLink = wire.SimLink
	// UDPEndpoint owns one UDP socket and demultiplexes to links.
	UDPEndpoint = wire.UDPEndpoint
	// UDPWireConfig parameterizes a UDP endpoint.
	UDPWireConfig = wire.UDPConfig
	// UDPWireLink is one peer's channel over an endpoint socket.
	UDPWireLink = wire.UDPLink
	// FragWireLink layers fragmentation/reassembly and PMTU discovery.
	FragWireLink = wire.FragLink
	// FragWireConfig parameterizes a FragWireLink.
	FragWireConfig = wire.FragConfig
	// FragWireStats counts fragmentation work and hostile rejections.
	FragWireStats = wire.FragStats
)

// Wire-layer errors.
var (
	// ErrWireClosed reports use of a closed link.
	ErrWireClosed = wire.ErrClosed
	// ErrWireTooLarge reports a datagram over the link's MTU.
	ErrWireTooLarge = wire.ErrTooLarge
	// ErrWireNoDatagram reports an empty non-blocking receive.
	ErrWireNoDatagram = wire.ErrNoDatagram
)

// NewSimLinkPair cross-connects two simulated links over engine: what a
// sends, b receives (through the ab impairment config), and vice versa.
func NewSimLinkPair(engine *Engine, ab, ba LinkConfig) (a, b *SimWireLink) {
	return wire.NewSimPair(engine, ab, ba)
}

// ListenWireUDP opens a UDP endpoint ("" listens on loopback) whose links
// carry RFC 3948-style UDP-encapsulated ESP: raw ESP demultiplexed by SPI,
// IKE control behind the four-zero non-ESP marker, single-byte NAT-T
// keepalives on idle.
func ListenWireUDP(addr string, cfg UDPWireConfig) (*UDPEndpoint, error) {
	return wire.ListenUDP(addr, cfg)
}

// NewFragWireLink wraps a link with explicit fragmentation/reassembly and
// probe-based path-MTU discovery; both endpoints must wrap the same way.
// Hostile fragment sequences (overlapping, tiny, inconsistent) are rejected
// with bounded reassembly memory.
func NewFragWireLink(inner WireLink, cfg FragWireConfig) *FragWireLink {
	return wire.NewFragLink(inner, cfg)
}
