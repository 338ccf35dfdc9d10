package ike

import (
	"crypto/ecdh"
	"crypto/hmac"
	"fmt"
)

// Handshake phases.
type phase uint8

const (
	phaseIdle phase = iota
	phaseInitSent
	phaseInitHandled
	phaseAuthSent
	phaseDone
)

// Initiator drives the initiator side of the handshake.
type Initiator struct {
	cfg Config
	ph  phase

	spiI, spiR uint64
	ni, nr     []byte
	priv       *ecdh.PrivateKey

	skeyseed   []byte
	transcript []byte
	childSPI   uint32 // initiator-chosen SPI for resp->init traffic
	keys       ChildKeys
}

// NewInitiator returns an initiator ready to produce the INIT request.
func NewInitiator(cfg Config) (*Initiator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Initiator{cfg: cfg}, nil
}

// InitRequest produces message 1.
func (i *Initiator) InitRequest() ([]byte, error) {
	if i.ph != phaseIdle {
		return nil, fmt.Errorf("%w: InitRequest in phase %d", ErrState, i.ph)
	}
	i.spiI = i.cfg.Rand.Uint64()
	i.ni = randBytes(i.cfg.Rand, nonceLen)
	i.priv = keyPair(i.cfg.Rand)

	msg := marshalInit(msgInitReq, initMsg{spi: i.spiI, nonce: i.ni, ke: i.priv.PublicKey().Bytes()})
	i.transcript = append(i.transcript, msg...)
	i.ph = phaseInitSent
	return msg, nil
}

// HandleInitResponse consumes message 2 and produces message 3 (AUTH
// request). The shared secret and SKEYSEED are computed here; a bad KE
// leaves the initiator as it was.
func (i *Initiator) HandleInitResponse(b []byte) ([]byte, error) {
	if i.ph != phaseInitSent {
		return nil, fmt.Errorf("%w: HandleInitResponse in phase %d", ErrState, i.ph)
	}
	m, err := unmarshalInit(msgInitResp, b)
	if err != nil {
		return nil, err
	}
	secret, err := sharedSecret(i.priv, m.ke)
	if err != nil {
		return nil, err
	}
	i.spiR = m.spi
	i.nr = m.nonce
	i.transcript = append(i.transcript, b...)
	i.skeyseed = prf(append(append([]byte{}, i.ni...), i.nr...), secret)

	i.childSPI = uint32(i.cfg.Rand.Uint64())
	auth := authTag(i.cfg.PSK, i.transcript, "initiator")
	msg := marshalAuth(msgAuthReq, authMsg{
		spiI: i.spiI, spiR: i.spiR,
		id: []byte(i.cfg.ID), auth: auth, childSPI: i.childSPI,
	})
	i.ph = phaseAuthSent
	return msg, nil
}

// HandleAuthResponse consumes message 4, verifies the responder's AUTH, and
// derives the child SA keys.
func (i *Initiator) HandleAuthResponse(b []byte) error {
	if i.ph != phaseAuthSent {
		return fmt.Errorf("%w: HandleAuthResponse in phase %d", ErrState, i.ph)
	}
	m, err := unmarshalAuth(msgAuthResp, b)
	if err != nil {
		return err
	}
	want := authTag(i.cfg.PSK, i.transcript, "responder")
	if !hmac.Equal(want[:], m.auth[:]) {
		return ErrAuthFailed
	}
	// m.childSPI is the responder-chosen SPI for init->resp traffic.
	i.keys = deriveChildKeys(i.skeyseed, i.ni, i.nr, m.childSPI, i.childSPI)
	i.ph = phaseDone
	return nil
}

// Established reports whether the handshake completed.
func (i *Initiator) Established() bool { return i.ph == phaseDone }

// ChildKeys returns the negotiated child SA keying (valid once Established).
func (i *Initiator) ChildKeys() ChildKeys { return i.keys }

// Responder drives the responder side of the handshake.
type Responder struct {
	cfg Config
	ph  phase

	spiI, spiR uint64
	ni, nr     []byte

	skeyseed   []byte
	transcript []byte
	childSPI   uint32 // responder-chosen SPI for init->resp traffic
	keys       ChildKeys
}

// NewResponder returns a responder awaiting the INIT request.
func NewResponder(cfg Config) (*Responder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Responder{cfg: cfg}, nil
}

// HandleInitRequest consumes message 1 and produces message 2; a bad KE
// leaves the responder as it was.
func (r *Responder) HandleInitRequest(b []byte) ([]byte, error) {
	if r.ph != phaseIdle {
		return nil, fmt.Errorf("%w: HandleInitRequest in phase %d", ErrState, r.ph)
	}
	m, err := unmarshalInit(msgInitReq, b)
	if err != nil {
		return nil, err
	}
	spiR := r.cfg.Rand.Uint64()
	nr := randBytes(r.cfg.Rand, nonceLen)
	priv := keyPair(r.cfg.Rand)
	secret, err := sharedSecret(priv, m.ke)
	if err != nil {
		return nil, err
	}
	r.spiI, r.ni, r.spiR, r.nr = m.spi, m.nonce, spiR, nr
	r.skeyseed = prf(append(append([]byte{}, r.ni...), r.nr...), secret)

	msg := marshalInit(msgInitResp, initMsg{spi: r.spiR, nonce: r.nr, ke: priv.PublicKey().Bytes()})
	r.transcript = append(append(r.transcript, b...), msg...)
	r.ph = phaseInitHandled
	return msg, nil
}

// HandleAuthRequest consumes message 3, verifies the initiator's AUTH, and
// produces message 4, deriving the child SA keys.
func (r *Responder) HandleAuthRequest(b []byte) ([]byte, error) {
	if r.ph != phaseInitHandled {
		return nil, fmt.Errorf("%w: HandleAuthRequest in phase %d", ErrState, r.ph)
	}
	m, err := unmarshalAuth(msgAuthReq, b)
	if err != nil {
		return nil, err
	}
	want := authTag(r.cfg.PSK, r.transcript, "initiator")
	if !hmac.Equal(want[:], m.auth[:]) {
		return nil, ErrAuthFailed
	}
	r.childSPI = uint32(r.cfg.Rand.Uint64())
	// m.childSPI is the initiator-chosen SPI for resp->init traffic.
	r.keys = deriveChildKeys(r.skeyseed, r.ni, r.nr, r.childSPI, m.childSPI)

	auth := authTag(r.cfg.PSK, r.transcript, "responder")
	msg := marshalAuth(msgAuthResp, authMsg{
		spiI: r.spiI, spiR: r.spiR,
		id: []byte(r.cfg.ID), auth: auth, childSPI: r.childSPI,
	})
	r.ph = phaseDone
	return msg, nil
}

// Established reports whether the handshake completed.
func (r *Responder) Established() bool { return r.ph == phaseDone }

// ChildKeys returns the negotiated child SA keying (valid once Established).
func (r *Responder) ChildKeys() ChildKeys { return r.keys }

// EstablishResult summarizes a completed in-memory handshake.
type EstablishResult struct {
	// Keys is the negotiated child keying (identical on both sides).
	Keys ChildKeys
	// Messages and Bytes total the wire traffic (4 messages).
	Messages int
	Bytes    int
	// DH counts both parties' X25519 operations (4: each party's key pair
	// and shared secret).
	DH int
}

// Establish runs the complete 4-message handshake in memory and returns the
// negotiated keys and costs. It is the unit the multi-SA recovery
// experiments multiply when pricing the IETF teardown-and-renegotiate
// remedy.
func Establish(initCfg, respCfg Config) (EstablishResult, error) {
	ini, err := NewInitiator(initCfg)
	if err != nil {
		return EstablishResult{}, fmt.Errorf("ike: initiator: %w", err)
	}
	rsp, err := NewResponder(respCfg)
	if err != nil {
		return EstablishResult{}, fmt.Errorf("ike: responder: %w", err)
	}
	m1, err := ini.InitRequest()
	if err != nil {
		return EstablishResult{}, err
	}
	m2, err := rsp.HandleInitRequest(m1)
	if err != nil {
		return EstablishResult{}, err
	}
	m3, err := ini.HandleInitResponse(m2)
	if err != nil {
		return EstablishResult{}, err
	}
	m4, err := rsp.HandleAuthRequest(m3)
	if err != nil {
		return EstablishResult{}, err
	}
	if err := ini.HandleAuthResponse(m4); err != nil {
		return EstablishResult{}, err
	}
	return EstablishResult{
		Keys:     ini.ChildKeys(),
		Messages: 4,
		Bytes:    len(m1) + len(m2) + len(m3) + len(m4),
		DH:       4,
	}, nil
}
