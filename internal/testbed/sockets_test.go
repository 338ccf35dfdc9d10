//go:build sockets

package testbed

import (
	"bytes"
	"testing"
)

// TestTransportRoundTripRidesControlLane: on a UDP pair RoundTrip carries
// the request to B's control lane and the reply back to A's, and nothing
// reaches the ESP lane the wires use.
func TestTransportRoundTripRidesControlLane(t *testing.T) {
	p := newPair(t, Config{Link: UDP})
	var served []byte
	got, err := p.RoundTrip([]byte("request"), func(req []byte) ([]byte, error) {
		served = append([]byte(nil), req...)
		return []byte("reply"), nil
	})
	if err != nil || !bytes.Equal(got, []byte("reply")) || !bytes.Equal(served, []byte("request")) {
		t.Fatalf("RoundTrip = %q, %v; B served %q", got, err, served)
	}
	if tx, rx := p.Tx.Stats(), p.Rx.Stats(); tx.TxPackets != 1 || tx.RxPackets != 1 || rx.RxPackets != 1 {
		t.Fatalf("link stats A %+v, B %+v: want one message each way", tx, rx)
	}
	if got := carry(t, p, 3); got != 3 {
		t.Fatalf("delivered %d of 3 wires after the exchange", got)
	}
}
