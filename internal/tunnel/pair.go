package tunnel

import (
	"fmt"

	"antireplay/internal/ike"
)

// Pair builds two connected peers from one IKE handshake, wiring a's
// transport to b.Receive and vice versa through the supplied couplers
// (which may add a simulated network in between; nil couples directly).
func Pair(aCfg, bCfg Config, initCfg, respCfg ike.Config,
	aToB, bToA func(wire []byte, deliver func([]byte))) (*Peer, *Peer, error) {

	res, err := ike.Establish(initCfg, respCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("tunnel: pair handshake: %w", err)
	}
	k := res.Keys
	a, err := New(aCfg, k.SPIInitToResp, k.InitToResp, k.SPIRespToInit, k.RespToInit)
	if err != nil {
		return nil, nil, err
	}
	b, err := New(bCfg, k.SPIRespToInit, k.RespToInit, k.SPIInitToResp, k.InitToResp)
	if err != nil {
		return nil, nil, err
	}
	deliverToB := func(wire []byte) { b.Receive(wire) } //nolint:errcheck // verdicts observed via stats
	deliverToA := func(wire []byte) { a.Receive(wire) } //nolint:errcheck
	if aToB == nil {
		a.SetTransport(deliverToB)
	} else {
		a.SetTransport(func(wire []byte) { aToB(wire, deliverToB) })
	}
	if bToA == nil {
		b.SetTransport(deliverToA)
	} else {
		b.SetTransport(func(wire []byte) { bToA(wire, deliverToA) })
	}
	return a, b, nil
}
