package ike

import "fmt"

// Conn is the two-way control channel an IKE exchange rides: a datagram
// pipe with IKE framing handled elsewhere (e.g. the wire layer's non-ESP
// marker demultiplexing on a UDP-encapsulated link, or a simulated link's
// control lane). Send transmits one message; Recv blocks for the next.
//
// The interface is structural on purpose — wire.UDPLink's Control() view
// satisfies it without this package importing the transport.
type Conn interface {
	Send(p []byte) error
	Recv() ([]byte, error)
}

// ServeRekey answers one rekey request arriving on c: request in, response
// out. On success the responder holds the successor keys (rsp.ChildKeys).
func ServeRekey(rsp *RekeyResponder, c Conn) error {
	req, err := c.Recv()
	if err != nil {
		return fmt.Errorf("ike: rekey request recv: %w", err)
	}
	resp, err := rsp.HandleRequest(req)
	if err != nil {
		return err
	}
	if err := c.Send(resp); err != nil {
		return fmt.Errorf("ike: rekey response send: %w", err)
	}
	return nil
}
