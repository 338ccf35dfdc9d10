package testbed

import (
	"time"

	"antireplay/internal/wire"
)

// LinkKind selects what joins node A to node B.
type LinkKind uint8

const (
	// Direct hands each sent wire to B by a function call.
	Direct LinkKind = iota
	// Gated puts a wire.GateLink (Pair.Gate) on the A->B path: the
	// adversary's position, where campaigns drop, hold and inject.
	Gated
	// UDP crosses a real UDP-encapsulated loopback socket pair (Pair.Tx,
	// Pair.Rx): wires on the ESP lane, RoundTrip's messages on the control
	// lane behind the non-ESP marker.
	UDP
)

// udpTimeout bounds the wait for one datagram to cross the loopback.
const udpTimeout = 5 * time.Second

// InlineLink is the far end of an in-process path, the link a
// wire.GateLink wraps when the receiver is in the same process: Send hands
// a copy of the datagram to Deliver, which must be set by then, on the
// caller's goroutine. Nothing is ever queued, counted or limited.
type InlineLink struct{ Deliver func(p []byte) }

func (l *InlineLink) Send(p []byte) error {
	l.Deliver(append([]byte(nil), p...))
	return nil
}
func (l *InlineLink) Recv() ([]byte, error) { return nil, wire.ErrNoDatagram }
func (l *InlineLink) Close() error          { return nil }
func (l *InlineLink) Stats() wire.Stats     { return wire.Stats{} }

// listenUDP opens the UDP kind's loopback socket pair: A's endpoint and
// link Tx, B's endpoint and link Rx.
func (p *Pair) listenUDP() (err error) {
	if p.ea, err = wire.ListenUDP("", wire.UDPConfig{}); err != nil {
		return err
	}
	if p.eb, err = wire.ListenUDP("", wire.UDPConfig{}); err != nil {
		return err
	}
	if p.Tx, err = p.ea.Link(p.eb.Addr()); err != nil {
		return err
	}
	p.Rx, err = p.eb.Link(p.ea.Addr())
	return err
}

// cross moves one wire over the sockets of a UDP pair and returns what
// arrived; on the in-process kinds the wire is already where it is going.
func (p *Pair) cross(w []byte) ([]byte, error) {
	if p.Tx == nil {
		return w, nil
	}
	if err := p.Tx.Send(w); err != nil {
		return nil, err
	}
	return p.Rx.RecvTimeout(udpTimeout)
}

// RoundTrip carries one control request from A to B, answers it there with
// serve, and carries the reply back: an IKE exchange's one round trip. On a
// UDP pair both messages ride the control lane and B serves concurrently,
// as a real peer would; on the in-process kinds it is a direct call.
func (p *Pair) RoundTrip(req []byte, serve func(req []byte) ([]byte, error)) ([]byte, error) {
	if p.Tx == nil {
		return serve(req)
	}
	served := make(chan error, 1)
	go func() {
		got, err := p.Rx.RecvControlTimeout(udpTimeout)
		if err == nil {
			if got, err = serve(got); err == nil {
				err = p.Rx.SendControl(got)
			}
		}
		served <- err
	}()
	if err := p.Tx.SendControl(req); err != nil {
		return nil, err
	}
	if err := <-served; err != nil {
		return nil, err
	}
	return p.Tx.RecvControlTimeout(udpTimeout)
}
