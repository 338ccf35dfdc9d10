// Package wire is the transport layer: one link, UDPLink, a real socket
// carrying RFC 3948-style UDP encapsulation of ESP with a non-ESP marker
// for control traffic, absorbed NAT-T keepalives, and per-peer
// demultiplexing by SPI at a shared UDPEndpoint. There is no link interface
// and no middleware: the adversary's position is internal/adversary's Gate,
// and deterministic runs use netsim's impaired channels or a function call.
//
// Links carry whole datagrams. ESP-in-UDP leaves fragmentation to IP, so
// nothing here splits or reassembles; a link refuses a datagram above the
// UDP payload ceiling.
package wire

import "errors"

// Sentinel errors.
var (
	// ErrClosed reports an operation on a closed link.
	ErrClosed = errors.New("wire: link closed")
	// ErrTooLarge reports a datagram above the UDP payload ceiling.
	ErrTooLarge = errors.New("wire: datagram exceeds the UDP payload ceiling")
	// ErrNoDatagram reports a bounded receive (RecvTimeout) that ended
	// with nothing queued.
	ErrNoDatagram = errors.New("wire: no datagram queued")
)

// Stats counts one link's traffic, both directions, as seen at this
// endpoint.
type Stats struct {
	// TxPackets and TxBytes count datagrams accepted by Send.
	TxPackets, TxBytes uint64
	// RxPackets and RxBytes count datagrams the link received for Recv.
	RxPackets, RxBytes uint64
	// TxDrops counts datagrams Send refused (oversize) and datagrams Send
	// accepted that the kernel then refused.
	TxDrops uint64
	// RxDrops counts inbound datagrams discarded before delivery
	// (malformed encapsulation, demux miss, queue overflow).
	RxDrops uint64
	// Keepalives counts NAT-T keepalives received and absorbed.
	Keepalives uint64
}

// demuxSPI reads the leading 32-bit SPI of an ESP datagram, the key the
// UDP endpoint routes by. Short or non-ESP datagrams demux to 0.
func demuxSPI(p []byte) uint32 {
	if len(p) < 4 {
		return 0
	}
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}
