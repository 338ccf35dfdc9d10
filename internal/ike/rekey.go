package ike

import (
	"crypto/ecdh"
	"crypto/hmac"
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the CREATE_CHILD_SA-style rekey exchange: one round
// trip that replaces an existing child SA pair with a successor generation
// (fresh SPIs, fresh nonces, fresh DH — the PFS variant of RFC 7296 §1.3.2),
// with the same X25519 operations as the full handshake.
//
//	REKEY request:  oldSPIs, Ni, KEi, child SPI (initiator's inbound), AUTHi
//	REKEY response: oldSPIs, Nr, KEr, child SPI (responder's inbound), AUTHr
//
// Both AUTH payloads are PSK-keyed PRFs over the exchange transcript, and
// the transcript begins with the SPI pair of the SA being rekeyed: a
// captured rekey exchange for one tunnel cannot be spliced into another,
// and a responder only completes an exchange for the exact SA generation it
// was asked to roll over (ErrRekeyBinding otherwise). The successor's key
// material is additionally seeded with both the old and the new SPI pair,
// so even identical nonces could not reproduce a prior generation's keys.

// ErrRekeyBinding reports a rekey exchange whose transcript is bound to a
// different SA pair than the party was configured to roll over.
var ErrRekeyBinding = errors.New("ike: rekey exchange bound to a different SA pair")

// rekeyMsg is the body shared by the rekey request and response.
type rekeyMsg struct {
	oldIR, oldRI uint32 // the SA pair being rekeyed (init->resp, resp->init)
	childSPI     uint32 // proposer's inbound SPI for the successor pair
	nonce        []byte // nonceLen
	ke           []byte // X25519 public value
	auth         [32]byte
}

// Message type tags for the rekey exchange (the base handshake uses 1-4).
const (
	msgRekeyReq  = 5
	msgRekeyResp = 6
)

func marshalRekey(tag byte, m rekeyMsg) []byte {
	out := make([]byte, 0, 1+12+nonceLen+4+len(m.ke)+32)
	out = append(out, tag)
	out = binary.BigEndian.AppendUint32(out, m.oldIR)
	out = binary.BigEndian.AppendUint32(out, m.oldRI)
	out = binary.BigEndian.AppendUint32(out, m.childSPI)
	out = append(out, m.nonce...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.ke)))
	out = append(out, m.ke...)
	out = append(out, m.auth[:]...)
	return out
}

func unmarshalRekey(tag byte, b []byte) (rekeyMsg, error) {
	var m rekeyMsg
	if len(b) < 1+12+nonceLen+4+32 {
		return m, fmt.Errorf("%w: rekey message %d bytes", ErrBadMessage, len(b))
	}
	if b[0] != tag {
		return m, fmt.Errorf("%w: tag %d, want %d", ErrBadMessage, b[0], tag)
	}
	m.oldIR = binary.BigEndian.Uint32(b[1:5])
	m.oldRI = binary.BigEndian.Uint32(b[5:9])
	m.childSPI = binary.BigEndian.Uint32(b[9:13])
	m.nonce = append([]byte(nil), b[13:13+nonceLen]...)
	keLen := binary.BigEndian.Uint32(b[13+nonceLen : 17+nonceLen])
	rest := b[17+nonceLen:]
	if uint32(len(rest)) != keLen+32 {
		return m, fmt.Errorf("%w: KE length %d, have %d", ErrBadMessage, keLen, len(rest)-32)
	}
	m.ke = append([]byte(nil), rest[:keLen]...)
	copy(m.auth[:], rest[keLen:])
	return m, nil
}

// rekeyBinding is the transcript prefix naming the SA pair under rekey.
func rekeyBinding(oldIR, oldRI uint32) []byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], oldIR)
	binary.BigEndian.PutUint32(b[4:8], oldRI)
	return b[:]
}

// deriveRekeyKeys expands the exchange's SKEYSEED into the successor pair's
// keys, seeding the PRF+ with the nonces and both SPI generations.
func deriveRekeyKeys(skeyseed, ni, nr []byte, oldIR, oldRI, newIR, newRI uint32) ChildKeys {
	seed := make([]byte, 0, len(ni)+len(nr)+16)
	seed = append(seed, ni...)
	seed = append(seed, nr...)
	seed = binary.BigEndian.AppendUint32(seed, oldIR)
	seed = binary.BigEndian.AppendUint32(seed, oldRI)
	seed = binary.BigEndian.AppendUint32(seed, newIR)
	seed = binary.BigEndian.AppendUint32(seed, newRI)
	keys := deriveFromSeed(skeyseed, seed, newIR, newRI)
	return keys
}

// RekeyInitiator drives the initiating side of a child-SA rekey exchange.
type RekeyInitiator struct {
	cfg Config
	ph  phase

	oldIR, oldRI uint32
	ni           []byte
	priv         *ecdh.PrivateKey
	childSPI     uint32 // initiator-chosen SPI for resp->init successor
	transcript   []byte
	keys         ChildKeys
}

// NewRekeyInitiator returns an initiator that will roll over the child SA
// pair (oldIR, oldRI) — the SPIs of the init->resp and resp->init
// directions of the generation being replaced.
func NewRekeyInitiator(cfg Config, oldIR, oldRI uint32) (*RekeyInitiator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RekeyInitiator{cfg: cfg, oldIR: oldIR, oldRI: oldRI,
		transcript: rekeyBinding(oldIR, oldRI)}, nil
}

// Request produces the rekey request.
func (i *RekeyInitiator) Request() ([]byte, error) {
	if i.ph != phaseIdle {
		return nil, fmt.Errorf("%w: rekey Request in phase %d", ErrState, i.ph)
	}
	i.ni = randBytes(i.cfg.Rand, nonceLen)
	i.priv = keyPair(i.cfg.Rand)
	i.childSPI = uint32(i.cfg.Rand.Uint64())
	m := rekeyMsg{
		oldIR: i.oldIR, oldRI: i.oldRI, childSPI: i.childSPI,
		nonce: i.ni, ke: i.priv.PublicKey().Bytes(),
	}
	body := marshalRekey(msgRekeyReq, m)
	body = body[:len(body)-32] // auth covers everything before itself
	i.transcript = append(i.transcript, body...)
	m.auth = authTag(i.cfg.PSK, i.transcript, "rekey-initiator")
	msg := marshalRekey(msgRekeyReq, m)
	i.ph = phaseInitSent
	return msg, nil
}

// HandleResponse consumes the rekey response, verifies its AUTH over the
// bound transcript, and derives the successor keys; a bad KE leaves the
// initiator as it was.
func (i *RekeyInitiator) HandleResponse(b []byte) error {
	if i.ph != phaseInitSent {
		return fmt.Errorf("%w: rekey HandleResponse in phase %d", ErrState, i.ph)
	}
	m, err := unmarshalRekey(msgRekeyResp, b)
	if err != nil {
		return err
	}
	if m.oldIR != i.oldIR || m.oldRI != i.oldRI {
		return fmt.Errorf("%w: response names (%#x, %#x), rekeying (%#x, %#x)",
			ErrRekeyBinding, m.oldIR, m.oldRI, i.oldIR, i.oldRI)
	}
	transcript := append(i.transcript, b[:len(b)-32]...)
	want := authTag(i.cfg.PSK, transcript, "rekey-responder")
	if !hmac.Equal(want[:], m.auth[:]) {
		return ErrAuthFailed
	}
	secret, err := sharedSecret(i.priv, m.ke)
	if err != nil {
		return err
	}
	skeyseed := prf(append(append([]byte{}, i.ni...), m.nonce...), secret)
	// m.childSPI is the responder-chosen successor SPI for init->resp.
	i.keys = deriveRekeyKeys(skeyseed, i.ni, m.nonce, i.oldIR, i.oldRI, m.childSPI, i.childSPI)
	i.ph = phaseDone
	return nil
}

// Established reports whether the exchange completed.
func (i *RekeyInitiator) Established() bool { return i.ph == phaseDone }

// ChildKeys returns the successor keying (valid once Established).
func (i *RekeyInitiator) ChildKeys() ChildKeys { return i.keys }

// RekeyResponder drives the responding side of a child-SA rekey exchange.
type RekeyResponder struct {
	cfg Config
	ph  phase

	oldIR, oldRI uint32
	childSPI     uint32 // responder-chosen SPI for init->resp successor
	keys         ChildKeys
}

// NewRekeyResponder returns a responder that will only complete a rekey of
// the child SA pair (oldIR, oldRI); a request bound to any other pair is
// refused with ErrRekeyBinding.
func NewRekeyResponder(cfg Config, oldIR, oldRI uint32) (*RekeyResponder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RekeyResponder{cfg: cfg, oldIR: oldIR, oldRI: oldRI}, nil
}

// HandleRequest consumes the rekey request and produces the response,
// deriving the successor keys; a bad KE leaves the responder as it was.
func (r *RekeyResponder) HandleRequest(b []byte) ([]byte, error) {
	if r.ph != phaseIdle {
		return nil, fmt.Errorf("%w: rekey HandleRequest in phase %d", ErrState, r.ph)
	}
	m, err := unmarshalRekey(msgRekeyReq, b)
	if err != nil {
		return nil, err
	}
	if m.oldIR != r.oldIR || m.oldRI != r.oldRI {
		return nil, fmt.Errorf("%w: request names (%#x, %#x), rekeying (%#x, %#x)",
			ErrRekeyBinding, m.oldIR, m.oldRI, r.oldIR, r.oldRI)
	}
	transcript := append(rekeyBinding(r.oldIR, r.oldRI), b[:len(b)-32]...)
	want := authTag(r.cfg.PSK, transcript, "rekey-initiator")
	if !hmac.Equal(want[:], m.auth[:]) {
		return nil, ErrAuthFailed
	}

	nr := randBytes(r.cfg.Rand, nonceLen)
	priv := keyPair(r.cfg.Rand)
	secret, err := sharedSecret(priv, m.ke)
	if err != nil {
		return nil, err
	}
	skeyseed := prf(append(append([]byte{}, m.nonce...), nr...), secret)

	r.childSPI = uint32(r.cfg.Rand.Uint64())
	// m.childSPI is the initiator-chosen successor SPI for resp->init.
	r.keys = deriveRekeyKeys(skeyseed, m.nonce, nr, r.oldIR, r.oldRI, r.childSPI, m.childSPI)

	resp := rekeyMsg{
		oldIR: r.oldIR, oldRI: r.oldRI, childSPI: r.childSPI,
		nonce: nr, ke: priv.PublicKey().Bytes(),
	}
	body := marshalRekey(msgRekeyResp, resp)
	transcript = append(transcript, body[:len(body)-32]...)
	resp.auth = authTag(r.cfg.PSK, transcript, "rekey-responder")
	msg := marshalRekey(msgRekeyResp, resp)
	r.ph = phaseDone
	return msg, nil
}

// Established reports whether the exchange completed.
func (r *RekeyResponder) Established() bool { return r.ph == phaseDone }

// ChildKeys returns the successor keying (valid once Established).
func (r *RekeyResponder) ChildKeys() ChildKeys { return r.keys }

// RekeyResult summarizes a completed in-memory rekey exchange.
type RekeyResult struct {
	// Keys is the successor generation's keying (identical on both sides).
	Keys ChildKeys
	// Messages and Bytes total the wire traffic (2 messages).
	Messages int
	Bytes    int
	// DH counts both parties' X25519 operations (4: each party's key pair
	// and shared secret).
	DH int
}

// RekeyChild runs the complete one-round-trip rekey exchange in memory for
// the child SA pair (oldIR, oldRI) and returns the successor keys and
// costs — the in-process composition used by the rekey orchestrator, tests,
// and single-host experiments, exactly as Establish is for the full
// handshake. Both configurations must name the same old SPI pair or the
// exchange fails with ErrRekeyBinding.
func RekeyChild(initCfg, respCfg Config, oldIR, oldRI uint32) (RekeyResult, error) {
	ini, err := NewRekeyInitiator(initCfg, oldIR, oldRI)
	if err != nil {
		return RekeyResult{}, fmt.Errorf("ike: rekey initiator: %w", err)
	}
	rsp, err := NewRekeyResponder(respCfg, oldIR, oldRI)
	if err != nil {
		return RekeyResult{}, fmt.Errorf("ike: rekey responder: %w", err)
	}
	m1, err := ini.Request()
	if err != nil {
		return RekeyResult{}, err
	}
	m2, err := rsp.HandleRequest(m1)
	if err != nil {
		return RekeyResult{}, err
	}
	if err := ini.HandleResponse(m2); err != nil {
		return RekeyResult{}, err
	}
	return RekeyResult{
		Keys:     ini.ChildKeys(),
		Messages: 2,
		Bytes:    len(m1) + len(m2),
		DH:       4,
	}, nil
}
