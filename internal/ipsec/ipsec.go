// Package ipsec is a userspace miniature of the IPsec data plane the paper
// runs on: security associations (SAs) with keys, algorithms and lifetimes;
// an ESP-like packet format with HMAC-SHA256-96 integrity and AES-CTR
// confidentiality; a security association database (SAD) and a simple
// security policy database (SPD).
//
// The anti-replay service is provided by internal/core: an outbound SA
// numbers packets through a core.Sender and an inbound SA admits them
// through a core.Receiver, so the SAVE/FETCH reset protection applies to
// real authenticated packets, not just abstract sequence numbers.
//
// Wire format (big endian), loosely after RFC 4303 but simplified — the
// 64-bit CTR nonce is derived from the sequence number instead of carrying
// an explicit IV, which is safe here precisely because the paper's protocol
// guarantees sequence numbers are never reused across resets:
//
//	offset 0  4  SPI
//	offset 4  4  sequence number (low 32 bits)
//	offset 8  n  payload (encrypted when the SA has an encryption key)
//	offset 8+n 12 ICV = HMAC-SHA256-96 over SPI || seq64 || payload-bytes
//
// The full 64-bit sequence number is authenticated (ESN style): the high 32
// bits enter the MAC but not the wire, and the receiver reconstructs them
// with seqwin.InferESN before verifying.
package ipsec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
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
	icvLen    = 12
	// Overhead is the total bytes the ESP encapsulation adds to a payload.
	Overhead = headerLen + icvLen
	// AuthKeySize is the required HMAC-SHA256 key length.
	AuthKeySize = 32
	// EncKeySize is the required AES-128 key length (0 = no encryption).
	EncKeySize = 16
)

// KeyMaterial is the symmetric keying of one SA direction.
type KeyMaterial struct {
	// AuthKey keys the HMAC-SHA256-96 ICV. Must be AuthKeySize bytes.
	AuthKey []byte
	// EncKey keys AES-CTR. Either EncKeySize bytes or empty for
	// integrity-only SAs.
	EncKey []byte
}

// Validate reports key-size errors.
func (k KeyMaterial) Validate() error {
	if len(k.AuthKey) != AuthKeySize {
		return fmt.Errorf("%w: auth key %d bytes, want %d", ErrKeySize, len(k.AuthKey), AuthKeySize)
	}
	if len(k.EncKey) != 0 && len(k.EncKey) != EncKeySize {
		return fmt.Errorf("%w: enc key %d bytes, want 0 or %d", ErrKeySize, len(k.EncKey), EncKeySize)
	}
	return nil
}

// cryptoState is the reusable scratch for one in-flight seal or open: a
// keyed HMAC instance, the SA's expanded AES block, and fixed buffers for
// the MAC sum and the CTR keystream. States are pooled per SA (cryptoPool),
// so steady-state datapath crypto performs no allocation — the classic
// "expand keys once, never allocate per packet" shape of kernel IPsec
// implementations.
type cryptoState struct {
	mac hash.Hash    // HMAC-SHA256 keyed with the SA's auth key
	blk cipher.Block // AES-128 block keyed with the SA's enc key; nil if none
	hdr [12]byte     // MAC header scratch (kept here so it never escapes)
	sum [sha256.Size]byte
	ctr [aes.BlockSize]byte
	ks  [aes.BlockSize]byte
}

// cryptoPool hands out cryptoStates for one SA's immutable KeyMaterial.
type cryptoPool struct {
	p sync.Pool
}

// newCryptoPool builds the pool; keys must already be validated.
func newCryptoPool(keys KeyMaterial) *cryptoPool {
	cp := &cryptoPool{}
	cp.p.New = func() any {
		st := &cryptoState{mac: hmac.New(sha256.New, keys.AuthKey)}
		if len(keys.EncKey) > 0 {
			blk, err := aes.NewCipher(keys.EncKey)
			if err != nil {
				// Validate() pinned the key length; aes.NewCipher cannot
				// fail on a validated key.
				panic(fmt.Sprintf("ipsec: aes: %v", err))
			}
			st.blk = blk
		}
		return st
	}
	return cp
}

func (cp *cryptoPool) get() *cryptoState   { return cp.p.Get().(*cryptoState) }
func (cp *cryptoPool) put(st *cryptoState) { cp.p.Put(st) }

// icvInto computes the HMAC-SHA256-96 ICV over SPI || seq64 || body into the
// state's sum buffer, returning the truncated slice (valid until the next
// icvInto on the same state).
func (st *cryptoState) icvInto(spi uint32, seq64 uint64, body []byte) []byte {
	st.mac.Reset()
	binary.BigEndian.PutUint32(st.hdr[0:4], spi)
	binary.BigEndian.PutUint64(st.hdr[4:12], seq64)
	st.mac.Write(st.hdr[:])
	st.mac.Write(body)
	return st.mac.Sum(st.sum[:0])[:icvLen]
}

// ctrXOR applies AES-CTR in place with a nonce derived from (spi, seq64),
// block by block through the state's cached cipher. Byte-identical to
// cipher.NewCTR over the same IV for any packet shorter than 2^32 blocks
// (the stdlib CTR carries into byte 11 only past a 64GiB keystream).
func (st *cryptoState) ctrXOR(spi uint32, seq64 uint64, data []byte) {
	binary.BigEndian.PutUint32(st.ctr[0:4], spi)
	binary.BigEndian.PutUint64(st.ctr[4:12], seq64)
	var ctr32 uint32
	for i := 0; i < len(data); i += aes.BlockSize {
		binary.BigEndian.PutUint32(st.ctr[12:16], ctr32)
		ctr32++
		st.blk.Encrypt(st.ks[:], st.ctr[:])
		n := len(data) - i
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		subtle.XORBytes(data[i:i+n], data[i:i+n], st.ks[:n])
	}
}

// sealAppendState appends the wire bytes for (spi, seq64, payload) to dst
// using pooled crypto scratch. It allocates only when dst lacks capacity.
func sealAppendState(cp *cryptoPool, spi uint32, seq64 uint64, payload, dst []byte) []byte {
	st := cp.get()
	start := len(dst)
	n := headerLen + len(payload) + icvLen
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	binary.BigEndian.PutUint32(out[0:4], spi)
	binary.BigEndian.PutUint32(out[4:8], uint32(seq64))
	body := out[headerLen : headerLen+len(payload)]
	copy(body, payload)
	if st.blk != nil {
		st.ctrXOR(spi, seq64, body)
	}
	copy(out[headerLen+len(payload):], st.icvInto(spi, seq64, body))
	cp.put(st)
	return dst
}

// openAppendState verifies wire bytes given the reconstructed seq64 and
// appends the decrypted payload to dst, using pooled crypto scratch. On
// error dst is returned unchanged.
func openAppendState(cp *cryptoPool, spi uint32, seq64 uint64, wire, dst []byte) ([]byte, error) {
	st := cp.get()
	body := wire[headerLen : len(wire)-icvLen]
	want := st.icvInto(spi, seq64, body)
	got := wire[len(wire)-icvLen:]
	if !hmac.Equal(want, got) {
		cp.put(st)
		return dst, ErrAuth
	}
	start := len(dst)
	dst = slices.Grow(dst, len(body))[:start+len(body)]
	payload := dst[start:]
	copy(payload, body)
	if st.blk != nil {
		st.ctrXOR(spi, seq64, payload)
	}
	cp.put(st)
	return dst, nil
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
