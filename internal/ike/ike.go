// Package ike is a miniature IKE (ISAKMP/Oakley-style) handshake used to
// price the alternative the paper argues against: tearing down and
// re-establishing the whole SA after a reset (§3: "reestablishing the entire
// IPsec SA is very expensive ... recomputation of most attributes ...
// renegotiation ... using a secured connection").
//
// The handshake is a simplified IKEv2 flow — two round trips:
//
//  1. INIT  request:  SPIi, nonce Ni, KEi (Diffie-Hellman public value)
//  2. INIT  response: SPIr, nonce Nr, KEr
//  3. AUTH  request:  IDi, AUTHi = prf(prf(PSK, pad), transcript), child SPI
//  4. AUTH  response: IDr, AUTHr, child SPI
//
// with X25519 Diffie-Hellman (RFC 7748, as RFC 8031 defines it for IKEv2)
// via crypto/ecdh, HMAC-SHA256 as the PRF, and RFC 7296-style PRF+ key
// expansion into child SA key material. A peer's KE value is checked: one
// that is not 32 bytes, or that yields the all-zero secret, is ErrBadMessage.
// The recovery-cost experiments count the exchange's messages and X25519
// operations.
//
// Randomness comes from a caller-supplied seeded source for experiment
// reproducibility; this package must not be used for actual security.
package ike

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"antireplay/internal/ipsec"
)

// Sentinel errors.
var (
	// ErrAuthFailed reports an AUTH payload that failed verification.
	ErrAuthFailed = errors.New("ike: authentication failed")
	// ErrBadMessage reports a malformed or unexpected message.
	ErrBadMessage = errors.New("ike: malformed message")
	// ErrState reports a handshake method called out of order.
	ErrState = errors.New("ike: invalid handshake state")
	// ErrConfig reports an invalid configuration.
	ErrConfig = errors.New("ike: invalid configuration")
)

// Config parameterizes one handshake party.
type Config struct {
	// PSK is the pre-shared key authenticating the peers. Required.
	PSK []byte
	// Rand supplies nonces, SPIs and DH private keys. Required (seed it for
	// reproducible experiments).
	Rand *rand.Rand
	// ID identifies the party in AUTH payloads (e.g. "gw-east").
	ID string
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.PSK) == 0 {
		return fmt.Errorf("%w: PSK required", ErrConfig)
	}
	if c.Rand == nil {
		return fmt.Errorf("%w: Rand required", ErrConfig)
	}
	return nil
}

// prf is HMAC-SHA256.
func prf(key, data []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(data)
	return m.Sum(nil)
}

// prfPlus is the RFC 7296 §2.13 key expansion.
func prfPlus(key, seed []byte, n int) []byte {
	var (
		out []byte
		t   []byte
	)
	for i := byte(1); len(out) < n; i++ {
		m := hmac.New(sha256.New, key)
		m.Write(t)
		m.Write(seed)
		m.Write([]byte{i})
		t = m.Sum(nil)
		out = append(out, t...)
	}
	return out[:n]
}

// keyPair draws an X25519 private key from rng. It draws 64 bytes and keeps
// the first 32: the width is part of the seeded-stream contract, because the
// SPIs drawn after it are pinned (TestSeededExchangePinned). It does not use
// GenerateKey, which may read one extra byte and so makes a seeded stream
// nondeterministic.
func keyPair(rng *rand.Rand) *ecdh.PrivateKey {
	priv, err := ecdh.X25519().NewPrivateKey(randBytes(rng, 64)[:32])
	if err != nil {
		panic("ike: X25519 unavailable: " + err.Error())
	}
	return priv
}

// sharedSecret computes the X25519 secret with the peer's KE value. A value
// that is not 32 bytes, or a low-order point whose secret is all zeros
// (RFC 7748 §6.1), is ErrBadMessage.
func sharedSecret(priv *ecdh.PrivateKey, peerKE []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerKE)
	if err != nil {
		return nil, fmt.Errorf("%w: KE %d bytes, want 32", ErrBadMessage, len(peerKE))
	}
	secret, err := priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("%w: KE is a low-order point", ErrBadMessage)
	}
	return secret, nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// keyPad is the RFC 7296 §2.15 pad string for PSK-based AUTH.
var keyPad = []byte("Key Pad for IKEv2")

// authTag computes the AUTH payload over a transcript.
func authTag(psk, transcript []byte, role string) [32]byte {
	inner := prf(psk, keyPad)
	var out [32]byte
	copy(out[:], prf(inner, append(transcript, role...)))
	return out
}

// ChildKeys is the keying for one child (ESP) SA pair produced by a
// handshake: initiator-to-responder and responder-to-initiator directions.
type ChildKeys struct {
	// InitToResp keys traffic from initiator to responder.
	InitToResp ipsec.KeyMaterial
	// RespToInit keys traffic from responder to initiator.
	RespToInit ipsec.KeyMaterial
	// SPIInitToResp and SPIRespToInit name the two SAs.
	SPIInitToResp uint32
	SPIRespToInit uint32
}

// deriveChildKeys expands SKEYSEED material into the child SA keys; both
// sides compute identical results from the shared secret and nonces.
func deriveChildKeys(skeyseed, ni, nr []byte, spiIR, spiRI uint32) ChildKeys {
	seed := make([]byte, 0, len(ni)+len(nr)+8)
	seed = append(seed, ni...)
	seed = append(seed, nr...)
	seed = binary.BigEndian.AppendUint32(seed, spiIR)
	seed = binary.BigEndian.AppendUint32(seed, spiRI)
	return deriveFromSeed(skeyseed, seed, spiIR, spiRI)
}

// deriveFromSeed runs the PRF+ expansion over an already-assembled seed and
// slices the output into the two directions' key material.
func deriveFromSeed(skeyseed, seed []byte, spiIR, spiRI uint32) ChildKeys {
	const per = ipsec.AuthKeySize + ipsec.EncKeySize
	km := prfPlus(skeyseed, seed, 2*per)
	return ChildKeys{
		InitToResp: ipsec.KeyMaterial{
			AuthKey: km[0:ipsec.AuthKeySize],
			EncKey:  km[ipsec.AuthKeySize:per],
		},
		RespToInit: ipsec.KeyMaterial{
			AuthKey: km[per : per+ipsec.AuthKeySize],
			EncKey:  km[per+ipsec.AuthKeySize : 2*per],
		},
		SPIInitToResp: spiIR,
		SPIRespToInit: spiRI,
	}
}
