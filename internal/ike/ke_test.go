package ike

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// badKEs are peer KE values every handler must refuse with ErrBadMessage:
// a finite-field-sized value, a short one, and the all-zero u-coordinate, a
// low-order point whose shared secret is all zeros.
var badKEs = map[string][]byte{
	"64-byte":    bytes.Repeat([]byte{0x5a}, 64),
	"31-byte":    bytes.Repeat([]byte{0x5a}, 31),
	"zero-point": make([]byte, 32),
}

// withInitKE re-frames an INIT message around ke.
func withInitKE(t *testing.T, tag byte, msg, ke []byte) []byte {
	t.Helper()
	m, err := unmarshalInit(tag, msg)
	if err != nil {
		t.Fatal(err)
	}
	m.ke = ke
	return marshalInit(tag, m)
}

// withRekeyKE rebuilds a rekey message around ke and signs it as a peer
// holding the PSK would, so the handler reaches the KE check: prefix is the
// transcript before the message, role the AUTH role string.
func withRekeyKE(t *testing.T, tag byte, msg, ke, prefix, psk []byte, role string) []byte {
	t.Helper()
	m, err := unmarshalRekey(tag, msg)
	if err != nil {
		t.Fatal(err)
	}
	m.ke = ke
	body := marshalRekey(tag, m)
	m.auth = authTag(psk, append(append([]byte{}, prefix...), body[:len(body)-32]...), role)
	return marshalRekey(tag, m)
}

func wantBadMessage(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

// TestBadPeerKERefused sends each handler that reads a peer KE the bad
// values, then the genuine message: the bad ones are ErrBadMessage and leave
// the party's phase and transcript as they were, so the exchange completes.
func TestBadPeerKERefused(t *testing.T) {
	for name, ke := range badKEs {
		t.Run("HandleInitRequest/"+name, func(t *testing.T) {
			ini, _ := NewInitiator(cfg(30, "i"))
			rsp, _ := NewResponder(cfg(31, "r"))
			m1, _ := ini.InitRequest()
			_, err := rsp.HandleInitRequest(withInitKE(t, msgInitReq, m1, ke))
			wantBadMessage(t, err)
			if rsp.ph != phaseIdle || len(rsp.transcript) != 0 || rsp.ni != nil {
				t.Fatalf("responder moved: phase %d, transcript %d bytes", rsp.ph, len(rsp.transcript))
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
			if !reflect.DeepEqual(ini.ChildKeys(), rsp.ChildKeys()) {
				t.Fatal("parties derived different keys")
			}
		})
		t.Run("HandleInitResponse/"+name, func(t *testing.T) {
			ini, _ := NewInitiator(cfg(32, "i"))
			rsp, _ := NewResponder(cfg(33, "r"))
			m1, _ := ini.InitRequest()
			m2, err := rsp.HandleInitRequest(m1)
			if err != nil {
				t.Fatal(err)
			}
			before := append([]byte(nil), ini.transcript...)
			_, err = ini.HandleInitResponse(withInitKE(t, msgInitResp, m2, ke))
			wantBadMessage(t, err)
			if ini.ph != phaseInitSent || !bytes.Equal(ini.transcript, before) || ini.spiR != 0 || ini.nr != nil {
				t.Fatalf("initiator moved: phase %d, spiR %#x", ini.ph, ini.spiR)
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
			if !reflect.DeepEqual(ini.ChildKeys(), rsp.ChildKeys()) {
				t.Fatal("parties derived different keys")
			}
		})
		t.Run("RekeyResponder.HandleRequest/"+name, func(t *testing.T) {
			c := rekeyCfg(34, "east")
			ini, _ := NewRekeyInitiator(c, 7, 8)
			rsp, _ := NewRekeyResponder(rekeyCfg(35, "west"), 7, 8)
			m1, _ := ini.Request()
			_, err := rsp.HandleRequest(withRekeyKE(t, msgRekeyReq, m1, ke,
				rekeyBinding(7, 8), c.PSK, "rekey-initiator"))
			wantBadMessage(t, err)
			if rsp.ph != phaseIdle {
				t.Fatalf("responder moved to phase %d", rsp.ph)
			}
			m2, err := rsp.HandleRequest(m1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ini.HandleResponse(m2); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ini.ChildKeys(), rsp.ChildKeys()) {
				t.Fatal("parties derived different keys")
			}
		})
		t.Run("RekeyInitiator.HandleResponse/"+name, func(t *testing.T) {
			c := rekeyCfg(36, "east")
			ini, _ := NewRekeyInitiator(c, 7, 8)
			rsp, _ := NewRekeyResponder(rekeyCfg(37, "west"), 7, 8)
			m1, _ := ini.Request()
			m2, err := rsp.HandleRequest(m1)
			if err != nil {
				t.Fatal(err)
			}
			before := append([]byte(nil), ini.transcript...)
			err = ini.HandleResponse(withRekeyKE(t, msgRekeyResp, m2, ke,
				before, c.PSK, "rekey-responder"))
			wantBadMessage(t, err)
			if ini.ph != phaseInitSent || !bytes.Equal(ini.transcript, before) {
				t.Fatalf("initiator moved: phase %d", ini.ph)
			}
			if err := ini.HandleResponse(m2); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ini.ChildKeys(), rsp.ChildKeys()) {
				t.Fatal("parties derived different keys")
			}
		})
	}
}

// keysHex is a ChildKeys' key material in one string.
func keysHex(k ChildKeys) string {
	return hex.EncodeToString(k.InitToResp.AuthKey) + hex.EncodeToString(k.InitToResp.EncKey) +
		hex.EncodeToString(k.RespToInit.AuthKey) + hex.EncodeToString(k.RespToInit.EncKey)
}

// TestSeededExchangePinned pins what a seeded exchange negotiates. The SPIs
// are the ones the same seeds gave when the key pair was a 512-bit
// finite-field exponent: keyPair draws the same 64 bytes, so every later
// draw from the stream lands where it did, and an equal SPI shows it. The
// keys are X25519's.
func TestSeededExchangePinned(t *testing.T) {
	res, err := Establish(cfg(1, "east"), cfg(2, "west"))
	if err != nil {
		t.Fatal(err)
	}
	rk, err := RekeyChild(rekeyCfg(3, "east"), rekeyCfg(4, "west"), 0x100, 0x101)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		keys   ChildKeys
		ir, ri uint32
		hex    string
	}{
		{"Establish", res.Keys, 0x23ff1d0f, 0x29ec300c,
			"e31e5b89fc378b336c7271e1c2863fe5af8fd7a925c1e8b93022f1c34235f672" +
				"66c48c39887e8d314ea5c40b307cabc19415b3f79cc329a4849b8a9f91d9e4ca" +
				"32845937547beaf70b44b53bdce4d9546c73d4c32f710edc8ecd961cd58325a2"},
		{"RekeyChild", rk.Keys, 0x7ffa8cca, 0x64779bef,
			"7c08c5c66a783d4b6efe80f8bb68eac0784764e30f56ebaafef9996137fd894f" +
				"b90431828603da8a53bd78a66036495757aadb3ef7939b578a5a6346225d9926" +
				"ee1fca9fcf18b3992673218b214f8938bb30151f06410ffc6780d2d156086eb9"},
	} {
		if c.keys.SPIInitToResp != c.ir || c.keys.SPIRespToInit != c.ri {
			t.Errorf("%s SPIs = %#x, %#x, want %#x, %#x", c.name,
				c.keys.SPIInitToResp, c.keys.SPIRespToInit, c.ir, c.ri)
		}
		if got := keysHex(c.keys); got != c.hex {
			t.Errorf("%s keys = %s, want %s", c.name, got, c.hex)
		}
	}
}

// FuzzResponders feeds arbitrary bytes to a fresh responder of each
// exchange: every call returns an error or a well-formed reply carrying a
// 32-byte KE, and none panics.
func FuzzResponders(f *testing.F) {
	ini, _ := NewInitiator(cfg(40, "i"))
	m1, _ := ini.InitRequest()
	rini, _ := NewRekeyInitiator(rekeyCfg(41, "east"), 7, 8)
	r1, _ := rini.Request()
	f.Add(m1)
	f.Add(r1)
	for _, ke := range badKEs {
		m := append([]byte(nil), m1[:len(m1)-32-4]...)
		f.Add(append(append(m, 0, 0, 0, byte(len(ke))), ke...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rsp, _ := NewResponder(cfg(42, "r"))
		if reply, err := rsp.HandleInitRequest(b); err == nil {
			m, perr := unmarshalInit(msgInitResp, reply)
			if perr != nil || len(m.ke) != 32 || rsp.ph != phaseInitHandled {
				t.Fatalf("HandleInitRequest reply malformed: %v, KE %d bytes", perr, len(m.ke))
			}
		}
		rrsp, _ := NewRekeyResponder(rekeyCfg(43, "west"), 7, 8)
		if reply, err := rrsp.HandleRequest(b); err == nil {
			m, perr := unmarshalRekey(msgRekeyResp, reply)
			if perr != nil || len(m.ke) != 32 || !rrsp.Established() {
				t.Fatalf("HandleRequest reply malformed: %v, KE %d bytes", perr, len(m.ke))
			}
		}
	})
}
