//go:build sockets

package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"antireplay/internal/ike"
)

// These tests open real UDP sockets on the loopback interface. They are
// behind the `sockets` build tag (and all named TestTransport*) so the
// default test run stays hermetic; CI runs them in a dedicated job:
//
//	go test -run TestTransport -tags sockets ./internal/...

const sockTimeout = 5 * time.Second

// udpPair opens two loopback endpoints and a link each way. SPI a→b is
// 0x10 (registered at b), b→a is 0x20 (registered at a).
func udpPair(t *testing.T, cfg UDPConfig) (la, lb *UDPLink) {
	t.Helper()
	ea, err := ListenUDP("", cfg)
	if err != nil {
		t.Fatalf("ListenUDP a: %v", err)
	}
	t.Cleanup(func() { ea.Close() })
	eb, err := ListenUDP("", cfg)
	if err != nil {
		t.Fatalf("ListenUDP b: %v", err)
	}
	t.Cleanup(func() { eb.Close() })
	la, err = ea.Link(eb.Addr(), 0x20)
	if err != nil {
		t.Fatalf("link a: %v", err)
	}
	lb, err = eb.Link(ea.Addr(), 0x10)
	if err != nil {
		t.Fatalf("link b: %v", err)
	}
	return la, lb
}

// esp fabricates an ESP-shaped datagram: leading SPI, then payload.
func esp(spi uint32, payload []byte) []byte {
	p := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(p, spi)
	copy(p[4:], payload)
	return p
}

func TestTransportUDPRoundTrip(t *testing.T) {
	la, lb := udpPair(t, UDPConfig{})

	want := esp(0x10, []byte("east-to-west over real sockets"))
	if err := la.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := lb.RecvTimeout(sockTimeout)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}

	back := esp(0x20, []byte("west-to-east"))
	if err := lb.Send(back); err != nil {
		t.Fatalf("Send back: %v", err)
	}
	if got, err = la.RecvTimeout(sockTimeout); err != nil || !bytes.Equal(got, back) {
		t.Fatalf("Recv back: %q, %v", got, err)
	}

	if s := la.Stats(); s.TxPackets != 1 || s.RxPackets != 1 {
		t.Errorf("la stats = %+v", s)
	}
}

func TestTransportUDPControlPlane(t *testing.T) {
	la, lb := udpPair(t, UDPConfig{})

	// A control message must not collide with ESP demux even when its
	// body begins with a valid SPI.
	msg := esp(0x10, []byte("ike-shaped control body"))
	if err := la.SendControl(msg); err != nil {
		t.Fatalf("SendControl: %v", err)
	}
	got, err := lb.RecvControlTimeout(sockTimeout)
	if err != nil {
		t.Fatalf("RecvControl: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("control got %q", got)
	}
	// Nothing leaked into the ESP lane.
	if _, err := lb.RecvTimeout(50 * time.Millisecond); err != ErrNoDatagram {
		t.Fatalf("data lane err = %v, want ErrNoDatagram", err)
	}
}

func TestTransportUDPRekeyExchange(t *testing.T) {
	la, lb := udpPair(t, UDPConfig{})

	cfg := func(seed int64, id string) ike.Config {
		return ike.Config{
			PSK:   []byte("sockets-test-psk"),
			Rand:  rand.New(rand.NewSource(seed)),
			Group: ike.TestGroup(),
			ID:    id,
		}
	}
	ini, err := ike.NewRekeyInitiator(cfg(1, "a"), 0x10, 0x20)
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := ike.NewRekeyResponder(cfg(2, "b"), 0x10, 0x20)
	if err != nil {
		t.Fatal(err)
	}

	// The responding side serves concurrently, as a real peer would:
	// request in on B's control lane, response out on it.
	srvErr := make(chan error, 1)
	go func() {
		req, err := lb.RecvControlTimeout(sockTimeout)
		if err == nil {
			var resp []byte
			if resp, err = rsp.HandleRequest(req); err == nil {
				err = lb.SendControl(resp)
			}
		}
		srvErr <- err
	}()

	// The initiating side, message by message: request out, response in.
	req, err := ini.Request()
	if err != nil {
		t.Fatal(err)
	}
	if err := la.SendControl(req); err != nil {
		t.Fatalf("request send: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("responder: %v", err)
	}
	resp, err := la.RecvControlTimeout(sockTimeout)
	if err != nil {
		t.Fatalf("response recv: %v", err)
	}
	if err := ini.HandleResponse(resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ini.ChildKeys(), rsp.ChildKeys()) {
		t.Fatalf("keys diverge across the socket exchange")
	}
}

func TestTransportUDPKeepalive(t *testing.T) {
	la, lb := udpPair(t, UDPConfig{KeepaliveInterval: 30 * time.Millisecond})
	_ = la

	// Neither side transmits; keepalives must flow and be absorbed.
	deadline := time.Now().Add(sockTimeout)
	for time.Now().Before(deadline) {
		if lb.Stats().Keepalives > 0 && la.KeepalivesSent() > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("keepalives: sent=%d seen=%d", la.KeepalivesSent(), lb.Stats().Keepalives)
}
