// Package ipsec is a userspace miniature of the IPsec data plane the paper
// runs on: security associations (SAs) with keys, algorithms and lifetimes;
// an ESP-like packet format sealed with AES-128-GCM (RFC 4106); a security
// association database (SAD) and a simple security policy database (SPD).
//
// The anti-replay service is provided by internal/core: an outbound SA
// numbers packets through a core.Sender and an inbound SA admits them
// through a core.Receiver, so the SAVE/FETCH reset protection applies to
// real authenticated packets, not just abstract sequence numbers.
//
// Wire format (big endian), after RFC 4303 with RFC 4106's AES-GCM and RFC
// 8750's implicit IV: no IV travels on the wire, because the 12-byte GCM
// nonce is (salt XOR SPI) || seq64. The SPI keeps SAs sharing keys apart;
// seq64 keeps one SA's packets apart, since the paper's protocol never
// reuses a sequence number across resets. Under GCM a reused nonce would
// leak the authentication key, not only a keystream:
//
//	offset 0    4  SPI
//	offset 4    4  sequence number (low 32 bits)
//	offset 8    n  ciphertext (AES-128-GCM of the payload)
//	offset 8+n 16  ICV = GCM tag over AAD SPI || seq64 and the ciphertext
//
// The full 64-bit sequence number is authenticated (ESN style): the high 32
// bits enter the nonce and the AAD but not the wire, and the receiver
// reconstructs them with seqwin.InferESN before verifying.
package ipsec

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Sentinel errors.
var (
	// ErrShortPacket reports a packet too small to parse.
	ErrShortPacket = errors.New("ipsec: packet too short")
	// ErrAuth reports an ICV verification failure.
	ErrAuth = errors.New("ipsec: integrity check failed")
	// ErrUnknownSPI reports an inbound packet with no matching SA.
	ErrUnknownSPI = errors.New("ipsec: unknown SPI")
	// ErrHardExpired reports an SA past its hard lifetime.
	ErrHardExpired = errors.New("ipsec: SA hard lifetime expired")
	// ErrSeqExhausted reports an outbound SA without ESN that has consumed
	// the entire 32-bit sequence space: RFC 4303 forbids letting the wire
	// sequence number cycle, so the SA must be rekeyed.
	ErrSeqExhausted = errors.New("ipsec: sequence number space exhausted")
	// ErrKeySize reports invalid key material.
	ErrKeySize = errors.New("ipsec: invalid key size")
	// ErrNoPolicy reports an outbound packet matching no SPD entry.
	ErrNoPolicy = errors.New("ipsec: no matching policy")
	// ErrDuplicateSPI reports a gateway SA registration reusing a live SPI.
	ErrDuplicateSPI = errors.New("ipsec: duplicate SPI")
	// ErrDraining reports a Seal on an outbound SA that a rekey has already
	// cut traffic away from: its successor owns the flow, and the old SA
	// only lingers so in-flight packets can still be verified by the peer.
	ErrDraining = errors.New("ipsec: outbound SA draining after rekey")
)

const (
	headerLen = 8
	icvLen    = 16
	saltLen   = 4
	// Overhead is the total bytes the ESP encapsulation adds to a payload.
	Overhead = headerLen + icvLen
	// AuthKeySize is the required KeyMaterial.AuthKey length; the first 4
	// bytes are the GCM salt.
	AuthKeySize = 32
	// EncKeySize is the required AES-128-GCM key length.
	EncKeySize = 16
)

// KeyMaterial is the symmetric keying of one SA direction.
type KeyMaterial struct {
	// AuthKey's first 4 bytes are the RFC 4106 salt, XORed with the SPI
	// into the fixed part of every GCM nonce; the rest is unused (an SA
	// keeps only the salt, and a snapshot reports the rest as zeros). Must
	// be AuthKeySize bytes. The name and size are those of the HMAC key
	// the salt replaced, kept so that ike's key split and callers sizing
	// keys by AuthKeySize stay valid.
	AuthKey []byte
	// EncKey keys AES-128-GCM. Must be EncKeySize bytes.
	EncKey []byte
}

// Validate reports key-size errors.
func (k KeyMaterial) Validate() error {
	if len(k.AuthKey) != AuthKeySize {
		return fmt.Errorf("%w: auth key %d bytes, want %d", ErrKeySize, len(k.AuthKey), AuthKeySize)
	}
	if len(k.EncKey) != EncKeySize {
		return fmt.Errorf("%w: enc key %d bytes, want %d", ErrKeySize, len(k.EncKey), EncKeySize)
	}
	return nil
}

// suite is one SA's AES-128-GCM keying: the 16-byte key and the 4-byte
// salt, by value — all an SA ever reads of its KeyMaterial — and the AEAD,
// built on the SA's first seal or open, so an installed but idle SA pays
// one pointer for it; cipher.AEAD is safe for concurrent use, so every
// packet on the SA shares it.
type suite struct {
	aead atomic.Pointer[cipher.AEAD]
	key  [EncKeySize]byte
	salt uint32
}

// init copies validated keys into s.
func (s *suite) init(keys KeyMaterial) {
	copy(s.key[:], keys.EncKey)
	s.salt = binary.BigEndian.Uint32(keys.AuthKey)
}

// keys returns the SA's key material in the form Validate accepts, freshly
// allocated: AuthKey is the salt zero-padded to AuthKeySize, since nothing
// past the salt was ever read.
func (s *suite) keys() KeyMaterial {
	auth := make([]byte, AuthKeySize)
	binary.BigEndian.PutUint32(auth, s.salt)
	return KeyMaterial{AuthKey: auth, EncKey: slices.Clone(s.key[:])}
}

func (s *suite) get() cipher.AEAD {
	if a := s.aead.Load(); a != nil {
		return *a
	}
	blk, err := aes.NewCipher(s.key[:])
	var a cipher.AEAD
	if err == nil {
		a, err = cipher.NewGCM(blk)
	}
	if err != nil {
		// The key is an array of the one valid length; neither call fails.
		panic(fmt.Sprintf("ipsec: aes-gcm: %v", err))
	}
	s.aead.CompareAndSwap(nil, &a)
	return a
}

// nonceAAD is one seal's or open's GCM nonce, (salt XOR SPI) || seq64, and
// AAD, SPI || seq64. Arguments to an interface method escape, so it comes
// from a pool, not the stack.
type nonceAAD struct {
	nonce, aad [12]byte
}

var nonceAADPool = sync.Pool{New: func() any { return new(nonceAAD) }}

func (s *suite) nonceAndAAD(spi uint32, seq64 uint64) *nonceAAD {
	na := nonceAADPool.Get().(*nonceAAD)
	binary.BigEndian.PutUint32(na.nonce[:saltLen], s.salt^spi)
	binary.BigEndian.PutUint64(na.nonce[saltLen:], seq64)
	binary.BigEndian.PutUint32(na.aad[:4], spi)
	binary.BigEndian.PutUint64(na.aad[4:], seq64)
	return na
}

// seal appends the wire bytes for (spi, seq64, payload) to dst. It
// allocates only when dst lacks capacity.
func (s *suite) seal(spi uint32, seq64 uint64, payload, dst []byte) []byte {
	aead := s.get()
	na := s.nonceAndAAD(spi, seq64)
	dst = slices.Grow(dst, headerLen+len(payload)+icvLen)
	dst = binary.BigEndian.AppendUint32(dst, spi)
	dst = binary.BigEndian.AppendUint32(dst, uint32(seq64))
	dst = aead.Seal(dst, na.nonce[:], payload, na.aad[:])
	nonceAADPool.Put(na)
	return dst
}

// open verifies wire bytes given the reconstructed seq64 and appends the
// decrypted payload to dst. On error dst is returned with its length
// unchanged.
func (s *suite) open(spi uint32, seq64 uint64, wire, dst []byte) ([]byte, error) {
	aead := s.get()
	na := s.nonceAndAAD(spi, seq64)
	out, err := aead.Open(dst, na.nonce[:], wire[headerLen:], na.aad[:])
	nonceAADPool.Put(na)
	if err != nil {
		return dst, ErrAuth
	}
	return out, nil
}

// ParseSPI extracts the SPI from wire bytes without validating the rest.
func ParseSPI(wire []byte) (uint32, error) {
	if len(wire) < headerLen+icvLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(wire))
	}
	return binary.BigEndian.Uint32(wire[0:4]), nil
}

// ParseSeqLo extracts the low 32 sequence bits from wire bytes.
func ParseSeqLo(wire []byte) (uint32, error) {
	if len(wire) < headerLen+icvLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(wire))
	}
	return binary.BigEndian.Uint32(wire[4:8]), nil
}
