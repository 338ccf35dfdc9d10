package antireplay

import (
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
)

// IPsec data-plane types, re-exported from the implementation.
type (
	// KeyMaterial holds one direction's symmetric keys.
	KeyMaterial = ipsec.KeyMaterial
	// OutboundSA seals outgoing traffic with reset-resilient numbering.
	OutboundSA = ipsec.OutboundSA
	// InboundSA verifies incoming traffic with reset-resilient anti-replay.
	InboundSA = ipsec.InboundSA
	// Lifetime bounds an SA's use (soft/hard, bytes/time).
	Lifetime = ipsec.Lifetime
	// LifetimeState classifies an SA's lifetime position.
	LifetimeState = ipsec.LifetimeState
	// SAD is the inbound security association database.
	SAD = ipsec.SAD
	// SPD is the outbound security policy database.
	SPD = ipsec.SPD
	// Selector matches traffic to policies by address prefixes.
	Selector = ipsec.Selector
)

// Lifetime states.
const (
	LifetimeOK   = ipsec.LifetimeOK
	LifetimeSoft = ipsec.LifetimeSoft
	LifetimeHard = ipsec.LifetimeHard
)

// ESP constants.
const (
	// ESPOverhead is the bytes the encapsulation adds to a payload.
	ESPOverhead = ipsec.Overhead
	// AuthKeySize is the KeyMaterial.AuthKey length; its first 4 bytes are
	// the AES-GCM salt (RFC 4106), XORed with the SPI into the nonce.
	AuthKeySize = ipsec.AuthKeySize
	// EncKeySize is the AES-128-GCM key length.
	EncKeySize = ipsec.EncKeySize
)

// IPsec errors.
var (
	// ErrAuth reports an ICV verification failure.
	ErrAuth = ipsec.ErrAuth
	// ErrUnknownSPI reports a packet with no matching SA.
	ErrUnknownSPI = ipsec.ErrUnknownSPI
	// ErrHardExpired reports an SA past its hard lifetime.
	ErrHardExpired = ipsec.ErrHardExpired
	// ErrSeqExhausted reports a non-ESN outbound SA that has consumed the
	// 32-bit sequence space and must be rekeyed.
	ErrSeqExhausted = ipsec.ErrSeqExhausted
	// ErrShortPacket reports an unparseable packet.
	ErrShortPacket = ipsec.ErrShortPacket
	// ErrNoPolicy reports outbound traffic with no SPD match.
	ErrNoPolicy = ipsec.ErrNoPolicy
	// ErrDuplicateSPI reports a gateway SA registration reusing a live SPI.
	ErrDuplicateSPI = ipsec.ErrDuplicateSPI
	// ErrKeySize reports invalid key material.
	ErrKeySize = ipsec.ErrKeySize
	// ErrDraining reports a Seal on an outbound SA that a rekey has cut
	// traffic away from; its successor owns the flow.
	ErrDraining = ipsec.ErrDraining
)

// NewOutboundSA builds an outbound SA over a reset-resilient sender. esn
// declares whether the peer reconstructs 64-bit extended sequence numbers;
// without it Seal hard-fails with ErrSeqExhausted before the 32-bit wire
// sequence number can wrap (RFC 4303 forbids reuse).
func NewOutboundSA(spi uint32, keys KeyMaterial, sender *core.Sender, esn bool, life Lifetime, clock func() time.Duration) (*OutboundSA, error) {
	return ipsec.NewOutboundSA(spi, keys, sender, esn, life, clock)
}

// NewInboundSA builds an inbound SA over a reset-resilient receiver.
func NewInboundSA(spi uint32, keys KeyMaterial, receiver *core.Receiver, esn bool, life Lifetime, clock func() time.Duration) (*InboundSA, error) {
	return ipsec.NewInboundSA(spi, keys, receiver, esn, life, clock)
}

// ParseSPI extracts the SPI from wire bytes.
func ParseSPI(wire []byte) (uint32, error) { return ipsec.ParseSPI(wire) }
