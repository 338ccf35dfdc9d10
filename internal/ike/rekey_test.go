package ike

import (
	"errors"
	"math/rand"
	"testing"
)

func rekeyCfg(seed int64, id string) Config {
	return Config{
		PSK:  []byte("rekey-test-psk"),
		Rand: rand.New(rand.NewSource(seed)),
		ID:   id,
	}
}

func TestRekeyChildDerivesMatchingKeys(t *testing.T) {
	res, err := RekeyChild(rekeyCfg(1, "east"), rekeyCfg(2, "west"), 0x100, 0x101)
	if err != nil {
		t.Fatalf("RekeyChild: %v", err)
	}
	k := res.Keys
	if k.SPIInitToResp == 0x100 || k.SPIRespToInit == 0x101 {
		t.Error("successor reused an old SPI")
	}
	if k.SPIInitToResp == k.SPIRespToInit {
		t.Error("successor directions share one SPI")
	}
	if err := k.InitToResp.Validate(); err != nil {
		t.Errorf("InitToResp keys: %v", err)
	}
	if err := k.RespToInit.Validate(); err != nil {
		t.Errorf("RespToInit keys: %v", err)
	}
	if res.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Messages)
	}
	// One round trip must cost half the full handshake's messages but the
	// same DH shape (2 per side: own key pair + shared secret).
	if res.DH != 4 {
		t.Errorf("DH = %d, want 4", res.DH)
	}
}

// TestRekeySidesAgree runs the exchange message by message and checks both
// parties derive identical successor keying.
func TestRekeySidesAgree(t *testing.T) {
	ini, err := NewRekeyInitiator(rekeyCfg(3, "east"), 7, 8)
	if err != nil {
		t.Fatalf("NewRekeyInitiator: %v", err)
	}
	rsp, err := NewRekeyResponder(rekeyCfg(4, "west"), 7, 8)
	if err != nil {
		t.Fatalf("NewRekeyResponder: %v", err)
	}
	m1, err := ini.Request()
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	m2, err := rsp.HandleRequest(m1)
	if err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if err := ini.HandleResponse(m2); err != nil {
		t.Fatalf("HandleResponse: %v", err)
	}
	if !ini.Established() || !rsp.Established() {
		t.Fatal("exchange did not complete on both sides")
	}
	ki, kr := ini.ChildKeys(), rsp.ChildKeys()
	if ki.SPIInitToResp != kr.SPIInitToResp || ki.SPIRespToInit != kr.SPIRespToInit {
		t.Errorf("SPI disagreement: %+v vs %+v", ki, kr)
	}
	if string(ki.InitToResp.AuthKey) != string(kr.InitToResp.AuthKey) ||
		string(ki.RespToInit.AuthKey) != string(kr.RespToInit.AuthKey) {
		t.Error("key disagreement between initiator and responder")
	}
}

// TestRekeyTranscriptBinding: a responder rolling over one SA pair refuses
// an exchange bound to another, and a tampered binding breaks the AUTH.
func TestRekeyTranscriptBinding(t *testing.T) {
	ini, _ := NewRekeyInitiator(rekeyCfg(5, "east"), 0xAAAA, 0xBBBB)
	m1, err := ini.Request()
	if err != nil {
		t.Fatalf("Request: %v", err)
	}

	// Wrong pair configured at the responder: refused outright.
	rsp, _ := NewRekeyResponder(rekeyCfg(6, "west"), 0xAAAA, 0xCCCC)
	if _, err := rsp.HandleRequest(m1); !errors.Is(err, ErrRekeyBinding) {
		t.Errorf("mismatched pair: err = %v, want ErrRekeyBinding", err)
	}

	// A spliced message (old SPIs rewritten in transit to match what the
	// responder expects): the AUTH tag, computed over the true binding,
	// fails — the transcript is what carries the SA identity.
	spliced := append([]byte(nil), m1...)
	spliced[4] = ^spliced[4] // oldIR 0xAAAA -> 0xAA55 on the wire
	rsp2, _ := NewRekeyResponder(rekeyCfg(7, "west"), 0xAA55, 0xBBBB)
	if _, err := rsp2.HandleRequest(spliced); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("spliced rekey request: err = %v, want ErrAuthFailed", err)
	}

	// Wrong PSK: AUTH fails.
	bad := rekeyCfg(8, "west")
	bad.PSK = []byte("wrong")
	rsp3, _ := NewRekeyResponder(bad, 0xAAAA, 0xBBBB)
	if _, err := rsp3.HandleRequest(m1); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("wrong PSK: err = %v, want ErrAuthFailed", err)
	}
}

// TestRekeyGenerationsDiverge: two rollovers of the same pair produce
// distinct keying (fresh nonces/DH), and the successor never equals the
// generation it replaces.
func TestRekeyGenerationsDiverge(t *testing.T) {
	r1, err := RekeyChild(rekeyCfg(9, "east"), rekeyCfg(10, "west"), 1, 2)
	if err != nil {
		t.Fatalf("RekeyChild: %v", err)
	}
	r2, err := RekeyChild(rekeyCfg(11, "east"), rekeyCfg(12, "west"), 1, 2)
	if err != nil {
		t.Fatalf("RekeyChild: %v", err)
	}
	if string(r1.Keys.InitToResp.AuthKey) == string(r2.Keys.InitToResp.AuthKey) {
		t.Error("two rekeys of one pair derived identical keys")
	}
}
