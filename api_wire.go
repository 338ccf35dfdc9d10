package antireplay

import (
	"antireplay/internal/wire"
)

// Wire-layer types, re-exported from the implementation: the real
// UDP-encapsulated socket transport (ListenWireUDP). The deterministic
// simulator and the gate middleware implement the same internal/wire.Link
// contract and stay internal.
type (
	// WireStats counts a link's traffic.
	WireStats = wire.Stats
	// UDPEndpoint owns one UDP socket and demultiplexes to links.
	UDPEndpoint = wire.UDPEndpoint
	// UDPWireConfig parameterizes a UDP endpoint.
	UDPWireConfig = wire.UDPConfig
	// UDPWireLink is one peer's channel over an endpoint socket.
	UDPWireLink = wire.UDPLink
)

// Wire-layer errors.
var (
	// ErrWireClosed reports use of a closed link.
	ErrWireClosed = wire.ErrClosed
	// ErrWireTooLarge reports a datagram over the UDP payload ceiling.
	ErrWireTooLarge = wire.ErrTooLarge
	// ErrWireNoDatagram reports an empty non-blocking receive.
	ErrWireNoDatagram = wire.ErrNoDatagram
)

// ListenWireUDP opens a UDP endpoint ("" listens on loopback) whose links
// carry RFC 3948-style UDP-encapsulated ESP: raw ESP demultiplexed by SPI,
// IKE control behind the four-zero non-ESP marker, single-byte NAT-T
// keepalives on idle.
func ListenWireUDP(addr string, cfg UDPWireConfig) (*UDPEndpoint, error) {
	return wire.ListenUDP(addr, cfg)
}
