package ike

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

func cfg(seed int64, id string) Config {
	return Config{
		PSK:  []byte("swordfish-psk"),
		Rand: rand.New(rand.NewSource(seed)),
		ID:   id,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("empty config = %v, want ErrConfig", err)
	}
	if err := (Config{PSK: []byte("x")}).Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("missing rand = %v, want ErrConfig", err)
	}
	if err := cfg(1, "a").Validate(); err != nil {
		t.Errorf("valid config = %v", err)
	}
}

func TestEstablishDerivesMatchingKeys(t *testing.T) {
	res, err := Establish(cfg(1, "gw-east"), cfg(2, "gw-west"))
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	k := res.Keys
	if err := k.InitToResp.Validate(); err != nil {
		t.Errorf("InitToResp keys invalid: %v", err)
	}
	if err := k.RespToInit.Validate(); err != nil {
		t.Errorf("RespToInit keys invalid: %v", err)
	}
	if bytes.Equal(k.InitToResp.AuthKey, k.RespToInit.AuthKey) {
		t.Error("directions share an auth key")
	}
	if k.SPIInitToResp == k.SPIRespToInit {
		t.Error("directions share an SPI")
	}
	if res.Messages != 4 {
		t.Errorf("Messages = %d, want 4", res.Messages)
	}
	if res.Bytes == 0 {
		t.Errorf("missing cost accounting: %+v", res)
	}
	// Each party: one key pair + one shared secret.
	if res.DH != 4 {
		t.Errorf("DH = %d, want 4", res.DH)
	}
}

func TestBothSidesDeriveSameKeys(t *testing.T) {
	ini, err := NewInitiator(cfg(3, "i"))
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := NewResponder(cfg(4, "r"))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := ini.InitRequest()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := rsp.HandleInitRequest(m1)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := ini.HandleInitResponse(m2)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := rsp.HandleAuthRequest(m3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ini.HandleAuthResponse(m4); err != nil {
		t.Fatal(err)
	}
	if !ini.Established() || !rsp.Established() {
		t.Fatal("handshake not established on both sides")
	}
	ik, rk := ini.ChildKeys(), rsp.ChildKeys()
	if !bytes.Equal(ik.InitToResp.AuthKey, rk.InitToResp.AuthKey) ||
		!bytes.Equal(ik.InitToResp.EncKey, rk.InitToResp.EncKey) ||
		!bytes.Equal(ik.RespToInit.AuthKey, rk.RespToInit.AuthKey) ||
		!bytes.Equal(ik.RespToInit.EncKey, rk.RespToInit.EncKey) {
		t.Error("child keys differ between parties")
	}
	if ik.SPIInitToResp != rk.SPIInitToResp || ik.SPIRespToInit != rk.SPIRespToInit {
		t.Error("child SPIs differ between parties")
	}
}

func TestPSKMismatchFailsAuth(t *testing.T) {
	bad := cfg(5, "imposter")
	bad.PSK = []byte("wrong-psk")
	good := cfg(6, "gw")

	ini, _ := NewInitiator(bad)
	rsp, _ := NewResponder(good)
	m1, _ := ini.InitRequest()
	m2, _ := rsp.HandleInitRequest(m1)
	m3, _ := ini.HandleInitResponse(m2)
	if _, err := rsp.HandleAuthRequest(m3); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("HandleAuthRequest with wrong PSK = %v, want ErrAuthFailed", err)
	}
}

func TestResponderAuthVerifiedByInitiator(t *testing.T) {
	// A responder that answers with a corrupted AUTH must be rejected.
	ini, _ := NewInitiator(cfg(7, "i"))
	rsp, _ := NewResponder(cfg(8, "r"))
	m1, _ := ini.InitRequest()
	m2, _ := rsp.HandleInitRequest(m1)
	m3, _ := ini.HandleInitResponse(m2)
	m4, err := rsp.HandleAuthRequest(m3)
	if err != nil {
		t.Fatal(err)
	}
	m4[len(m4)-10] ^= 0x40 // flip an AUTH bit
	if err := ini.HandleAuthResponse(m4); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("HandleAuthResponse tampered = %v, want ErrAuthFailed", err)
	}
}

func TestOutOfOrderStateErrors(t *testing.T) {
	ini, _ := NewInitiator(cfg(9, "i"))
	if _, err := ini.HandleInitResponse(nil); !errors.Is(err, ErrState) {
		t.Errorf("HandleInitResponse first = %v, want ErrState", err)
	}
	if err := ini.HandleAuthResponse(nil); !errors.Is(err, ErrState) {
		t.Errorf("HandleAuthResponse first = %v, want ErrState", err)
	}
	rsp, _ := NewResponder(cfg(10, "r"))
	if _, err := rsp.HandleAuthRequest(nil); !errors.Is(err, ErrState) {
		t.Errorf("HandleAuthRequest first = %v, want ErrState", err)
	}
	if _, err := ini.InitRequest(); err != nil {
		t.Fatal(err)
	}
	if _, err := ini.InitRequest(); !errors.Is(err, ErrState) {
		t.Errorf("second InitRequest = %v, want ErrState", err)
	}
}

func TestMalformedMessages(t *testing.T) {
	rsp, _ := NewResponder(cfg(11, "r"))
	if _, err := rsp.HandleInitRequest([]byte{1, 2, 3}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short init = %v, want ErrBadMessage", err)
	}
	rsp2, _ := NewResponder(cfg(12, "r"))
	ini, _ := NewInitiator(cfg(13, "i"))
	m1, _ := ini.InitRequest()
	m1[0] = 99 // wrong tag
	if _, err := rsp2.HandleInitRequest(m1); !errors.Is(err, ErrBadMessage) {
		t.Errorf("wrong tag = %v, want ErrBadMessage", err)
	}
}

func TestNegotiatedKeysDriveIPsec(t *testing.T) {
	// End-to-end: IKE-negotiated keys secure an ESP exchange.
	res, err := Establish(cfg(20, "east"), cfg(21, "west"))
	if err != nil {
		t.Fatal(err)
	}
	var sm, rm store.Mem
	snd, err := core.NewSender(core.SenderConfig{K: 25, Store: &sm})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 25, Store: &rm, W: 64})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ipsec.NewOutboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, snd, false, ipsec.Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ipsec.NewInboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, rcv, false, ipsec.Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := out.Seal([]byte("negotiated"))
	if err != nil {
		t.Fatal(err)
	}
	payload, v, err := in.Open(wire)
	if err != nil || !v.Delivered() || string(payload) != "negotiated" {
		t.Fatalf("Open = %q %v %v", payload, v, err)
	}
}

func TestPrfPlusLengths(t *testing.T) {
	key := []byte("k")
	seed := []byte("s")
	for _, n := range []int{1, 31, 32, 33, 64, 100} {
		out := prfPlus(key, seed, n)
		if len(out) != n {
			t.Errorf("prfPlus(%d) returned %d bytes", n, len(out))
		}
	}
	// Deterministic and prefix-consistent.
	a := prfPlus(key, seed, 64)
	b := prfPlus(key, seed, 32)
	if !bytes.Equal(a[:32], b) {
		t.Error("prfPlus not prefix-consistent")
	}
}

func BenchmarkEstablish(b *testing.B) {
	psk := []byte("bench-psk")
	for i := 0; i < b.N; i++ {
		ic := Config{PSK: psk, Rand: rand.New(rand.NewSource(int64(i) + 1)), ID: "i"}
		rc := Config{PSK: psk, Rand: rand.New(rand.NewSource(int64(i) + 1e9)), ID: "r"}
		if _, err := Establish(ic, rc); err != nil {
			b.Fatal(err)
		}
	}
}
