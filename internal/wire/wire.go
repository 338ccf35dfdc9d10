// Package wire is the transport layer: the Link contract every packet path
// in the repo rides, with three implementations —
//
//   - SimLink adapts the deterministic netsim engine (the original
//     in-process wire every experiment grew up on);
//   - UDPLink is a real socket: RFC 3948-style UDP encapsulation of ESP
//     with a non-ESP marker for control traffic, NAT-T keepalives, and
//     per-peer demultiplexing by SPI at a shared UDPEndpoint;
//   - GateLink is middleware that composes over any Link: scheduled
//     drop/hold with the adversary's wiretap (Tap) and injection (Inject)
//     positions.
//
// Links carry whole datagrams. ESP-in-UDP leaves fragmentation to IP, so
// nothing here splits or reassembles; a socket link refuses a datagram
// above the UDP payload ceiling.
//
// A Link carries opaque datagrams — here, sealed ESP packets — between
// exactly two peers. Send has copied the datagram when it returns and does
// not wait for the network: a simulated send schedules engine events, a
// socket send queues the datagram on its endpoint's transmit ring for the
// endpoint's writer goroutine. It waits only while that ring is full, as a
// blocking socket waits on a full send buffer.
// Recv is pull-based: socket links block until a datagram or Close,
// simulated links drain a queue filled by the engine and report
// ErrNoDatagram when it is empty (simulations are single-threaded; their
// deliveries can also be taken inline via OnRecv). This split keeps the
// deterministic experiments deterministic while letting the same
// endpoint code run over real sockets.
package wire

import "errors"

// Sentinel errors.
var (
	// ErrClosed reports an operation on a closed link.
	ErrClosed = errors.New("wire: link closed")
	// ErrTooLarge reports a datagram above the UDP payload ceiling.
	ErrTooLarge = errors.New("wire: datagram exceeds the UDP payload ceiling")
	// ErrNoDatagram reports an empty receive queue on a non-blocking
	// (simulated) link; the caller is expected to run the engine further.
	ErrNoDatagram = errors.New("wire: no datagram queued")
)

// Stats counts one link's traffic, both directions, as seen at this
// endpoint. GateLink keeps its own additional counters; these are the
// universal ones.
type Stats struct {
	// TxPackets and TxBytes count datagrams accepted by Send.
	TxPackets, TxBytes uint64
	// RxPackets and RxBytes count datagrams returned by Recv (or handed
	// to an OnRecv handler).
	RxPackets, RxBytes uint64
	// TxDrops counts datagrams Send refused (oversize) and, on socket
	// links, datagrams Send accepted that the kernel then refused.
	TxDrops uint64
	// RxDrops counts inbound datagrams discarded before delivery
	// (malformed encapsulation, demux miss, queue overflow).
	RxDrops uint64
	// Keepalives counts NAT-T keepalives received and absorbed.
	Keepalives uint64
}

// Link is a bidirectional point-to-point datagram channel.
//
// Implementations are safe for one concurrent sender and one concurrent
// receiver (the tunnel's shape); Stats and Close may be called from any
// goroutine.
type Link interface {
	// Send transmits one datagram toward the peer. It has copied p when
	// it returns. It returns ErrTooLarge when a socket link cannot carry
	// the datagram and ErrClosed after Close; network loss is not an
	// error.
	Send(p []byte) error
	// Recv returns the next datagram from the peer. Socket links block
	// until traffic, Close (ErrClosed), or a deadline; simulated links
	// never block and return ErrNoDatagram when nothing is queued.
	Recv() ([]byte, error)
	// Close releases the link. Blocked Recvs return ErrClosed.
	Close() error
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
}

// Handler consumes inbound datagrams inline.
type Handler func(p []byte)

// InlineReceiver is implemented by links whose deliveries can be taken
// inline in the delivering goroutine (the simulated links, where that
// goroutine is the engine's). Registering a handler bypasses the Recv
// queue for subsequent deliveries.
type InlineReceiver interface {
	OnRecv(h Handler)
}

// Tapper is implemented by links offering the adversary's wiretap
// position: fn observes every datagram handed to Send, including those
// the network then loses.
type Tapper interface {
	Tap(fn func(p []byte))
}

// Injector is implemented by links the adversary can write to directly,
// bypassing taps and impairment (it controls its own transmissions).
// It matches adversary.Injector[[]byte].
type Injector interface {
	Inject(p []byte)
}

// demuxSPI reads the leading 32-bit SPI of an ESP datagram, the key the
// UDP endpoint routes by. Short or non-ESP datagrams demux to 0.
func demuxSPI(p []byte) uint32 {
	if len(p) < 4 {
		return 0
	}
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}
