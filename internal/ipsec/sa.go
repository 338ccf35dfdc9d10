package ipsec

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/seqwin"
)

// sub decrements an atomic counter by d (Add with two's complement).
func sub(c *atomic.Uint64, d uint64) {
	if d > 0 {
		c.Add(^(d - 1))
	}
}

// Lifetime bounds an SA's use, after RFC 4301's soft/hard semantics: past
// the soft bound the SA should be rekeyed; past the hard bound it must not
// be used.
type Lifetime struct {
	SoftBytes uint64
	HardBytes uint64
	SoftTime  time.Duration
	HardTime  time.Duration
}

// LifetimeState classifies an SA's position in its lifetime.
type LifetimeState uint8

// Lifetime states.
const (
	// LifetimeOK means the SA is fully usable.
	LifetimeOK LifetimeState = iota + 1
	// LifetimeSoft means the SA should be rekeyed but still works.
	LifetimeSoft
	// LifetimeHard means the SA must not secure further traffic.
	LifetimeHard
)

// String returns "ok", "soft" or "hard".
func (s LifetimeState) String() string {
	switch s {
	case LifetimeOK:
		return "ok"
	case LifetimeSoft:
		return "soft"
	case LifetimeHard:
		return "hard"
	default:
		return fmt.Sprintf("lifetime(%d)", uint8(s))
	}
}

// saBase is what an SA is in either direction: its AES-GCM keying, SPI and
// ESN flag, its lifetime bound and the bytes and packets counted against
// it, and the rekey lineage and drain mark the gateway writes.
type saBase struct {
	crypto suite
	bound  *bound // nil: no lifetime bound, no per-packet check

	// lineage: generation number within a rekey chain and the SPI of the
	// predecessor generation (0 = first generation). Written once, by the
	// gateway's rekey or adopt path, before the SA is published.
	generation uint64
	spi        uint32
	prevSPI    uint32
	draining   atomic.Bool
	esn        bool

	bytes, packets atomic.Uint64
}

// init checks keys and fills the half both constructors share.
func (b *saBase) init(spi uint32, keys KeyMaterial, esn bool, life Lifetime, clock func() time.Duration) error {
	if err := keys.Validate(); err != nil {
		return err
	}
	b.crypto.init(keys)
	b.bound, b.spi, b.esn = newBound(life, clock), spi, esn
	return nil
}

// SPI returns the SA's security parameter index.
func (b *saBase) SPI() uint32 { return b.spi }

// Generation returns the SA's position in its rekey chain (0 for an SA that
// never rekeyed).
func (b *saBase) Generation() uint64 { return b.generation }

// PrevSPI returns the SPI of the generation this SA replaced (0 = none).
func (b *saBase) PrevSPI() uint32 { return b.prevSPI }

// setLineage records the rekey chain position; called by the gateway before
// the SA is published.
func (b *saBase) setLineage(gen uint64, prev uint32) {
	b.generation, b.prevSPI = gen, prev
}

// BeginDrain marks the SA as superseded by a rekey. An outbound SA is
// retired from new traffic: every later Seal fails with ErrDraining. The
// rekey cutover marks the old generation the moment its successor owns the
// SPD entry, so a stale handle cannot keep emitting packets the peer will
// soon stop accepting; only Gateway.RevertOutbound, when a wider rollover
// fails before the peer cut over, returns it to service. An inbound SA
// still verifies and admits traffic — packets sealed under the old SPI
// before the cutover must not be dropped — and the mark only tells
// operators (and the rekey orchestrator's grace timer) that it is due for
// removal.
func (b *saBase) BeginDrain() { b.draining.Store(true) }

// endDrain returns the SA to service; only the gateway's rollback path
// (RevertOutbound) may call it.
func (b *saBase) endDrain() { b.draining.Store(false) }

// Draining reports whether BeginDrain has marked the SA.
func (b *saBase) Draining() bool { return b.draining.Load() }

// State classifies the SA's lifetime position.
func (b *saBase) State() LifetimeState { return b.bound.state(b.bytes.Load()) }

// OutboundSA secures one direction of traffic: it numbers packets through
// the reset-resilient sender and seals them. Safe for concurrent use; the
// per-packet counters are atomics, so concurrent Seals serialize only on
// the sender's own sequence allocation.
type OutboundSA struct {
	saBase
	seq *core.Sender
	// spdHead is the first of the SA's SPD entries (its position plus one,
	// 0 for none), under the SPD's writer mutex; see SPD. reg is the SA's
	// position in its gateway's outbound registry, under the gateway's.
	spdHead, reg int32
}

// NewOutboundSA builds an outbound SA. sender provides the sequence-number
// service (configure its SAVE/FETCH behaviour there); esn declares whether
// the peer reconstructs 64-bit extended sequence numbers — without it the
// SA hard-fails with ErrSeqExhausted before the 32-bit wire number can
// wrap; clock may be nil.
func NewOutboundSA(spi uint32, keys KeyMaterial, sender *core.Sender, esn bool, life Lifetime, clock func() time.Duration) (*OutboundSA, error) {
	o := &OutboundSA{seq: sender}
	if err := o.init(spi, keys, esn, life, clock); err != nil {
		return nil, err
	}
	if sender == nil {
		return nil, fmt.Errorf("%w: nil sender", core.ErrConfig)
	}
	return o, nil
}

// Sender exposes the underlying sequence-number sender (for reset/wake).
func (o *OutboundSA) Sender() *core.Sender { return o.seq }

// reserve atomically checks the hard lifetime and accounts n wire bytes and
// one packet in a single step, so that concurrent Seals cannot all pass a
// stale check and collectively overshoot HardBytes: each successful CAS
// observes a byte count strictly below the bound, and once the bound is
// reached every later attempt fails. The one packet that crosses the
// boundary is allowed, as with any in-flight packet at expiry.
func (o *OutboundSA) reserve(n uint64) error {
	if b := o.bound; b != nil {
		if b.life.HardTime > 0 && b.age() >= b.life.HardTime {
			return ErrHardExpired
		}
		if hard := b.life.HardBytes; hard > 0 {
			for {
				cur := o.bytes.Load()
				if cur >= hard {
					return ErrHardExpired
				}
				if o.bytes.CompareAndSwap(cur, cur+n) {
					o.packets.Add(1)
					return nil
				}
			}
		}
	}
	// No byte bound: plain wait-free accounting, no CAS retries on the hot
	// path.
	o.bytes.Add(n)
	o.packets.Add(1)
	return nil
}

// unreserve rolls back a reserve whose seal failed.
func (o *OutboundSA) unreserve(n uint64) {
	sub(&o.bytes, n)
	sub(&o.packets, 1)
}

// sealSeqAppend validates seq64 against the 32-bit wire wrap and appends the
// sealed wire bytes to dst; on error dst is returned unchanged.
func (o *OutboundSA) sealSeqAppend(dst []byte, seq64 uint64, payload []byte) ([]byte, error) {
	if !o.esn && seq64 > math.MaxUint32 {
		// RFC 4303 §3.3.3: without ESN the sender MUST NOT let the sequence
		// number cycle — reusing a wire number would also reuse the GCM
		// nonce. The SA is permanently exhausted; rekey to continue.
		return dst, fmt.Errorf("%w: sequence %d exceeds the 32-bit wire space", ErrSeqExhausted, seq64)
	}
	return o.crypto.seal(o.spi, seq64, payload, dst), nil
}

// Seal encapsulates payload, assigning the next sequence number. It fails
// with core.ErrDown / core.ErrWaking while the endpoint cannot send,
// ErrHardExpired past the hard lifetime, ErrSeqExhausted when a non-ESN SA
// has consumed the whole 32-bit sequence space, and ErrDraining once a
// rekey has cut traffic over to the SA's successor. Each call allocates the
// returned wire; the steady-state datapath form is SealAppend, which reuses
// a caller buffer and allocates nothing.
func (o *OutboundSA) Seal(payload []byte) ([]byte, error) {
	wire, err := o.SealAppend(make([]byte, 0, len(payload)+Overhead), payload)
	if err != nil {
		return nil, err
	}
	return wire, nil
}

// SealAppend is Seal appending the wire bytes to dst instead of allocating:
// the sealed packet is dst[len(dst):] of the returned slice. With a reused
// dst of sufficient capacity a steady-state SealAppend performs zero
// allocations — the sequence number comes from one short critical section
// per packet (core.Sender.Next takes the sender's mutex, as Receiver.Admit
// takes the receiver's), the SA's AES-GCM state is built once and shared,
// and the wire is built in place. On error dst is returned unchanged.
//
// dst's spare capacity must not partly overlap payload: the GCM seal panics
// on an inexact overlap. The one overlap allowed is exact, payload already
// at dst[len(dst)+8:], where its ciphertext goes.
func (o *OutboundSA) SealAppend(dst []byte, payload []byte) ([]byte, error) {
	if o.draining.Load() {
		return dst, fmt.Errorf("%w: %#x", ErrDraining, o.spi)
	}
	wireLen := uint64(len(payload)) + Overhead
	if err := o.reserve(wireLen); err != nil {
		return dst, err
	}
	seq64, err := o.seq.Next()
	if err != nil {
		o.unreserve(wireLen)
		return dst, err
	}
	out, err := o.sealSeqAppend(dst, seq64, payload)
	if err != nil {
		o.unreserve(wireLen)
		return dst, err
	}
	return out, nil
}

// Counters returns bytes and packets sealed so far.
func (o *OutboundSA) Counters() (bytes, packets uint64) {
	return o.bytes.Load(), o.packets.Load()
}

// InboundSA verifies and decapsulates one direction of traffic, admitting
// sequence numbers through the reset-resilient receiver. Safe for
// concurrent use: concurrent Opens verify and decrypt in parallel and
// serialize only on the receiver's admission.
type InboundSA struct {
	saBase
	replay *core.Receiver
	winW   int // receiver window width, immutable

	// Unsharded: every admitted packet already serializes on the receiver's
	// mutex. Auth failures are the one count bumped without taking it.
	authFails, replays atomic.Uint64
}

// NewInboundSA builds an inbound SA. receiver provides the anti-replay
// service; esn enables 64-bit extended sequence number reconstruction.
func NewInboundSA(spi uint32, keys KeyMaterial, receiver *core.Receiver, esn bool, life Lifetime, clock func() time.Duration) (*InboundSA, error) {
	i := &InboundSA{replay: receiver}
	if err := i.init(spi, keys, esn, life, clock); err != nil {
		return nil, err
	}
	if receiver == nil {
		return nil, fmt.Errorf("%w: nil receiver", core.ErrConfig)
	}
	i.winW = receiver.W()
	return i, nil
}

// Receiver exposes the underlying anti-replay receiver (for reset/wake).
func (i *InboundSA) Receiver() *core.Receiver { return i.replay }

// verifyOneInto parses, authenticates, and admits one packet without
// touching the SA counters. A delivered payload is appended to dst and is
// out[len(dst):]; on any other outcome out has dst's original length.
//
// With ESN the 64-bit sequence number is inferred from a single edge
// snapshot taken immediately before the ICV check. A concurrent Open can
// advance the edge between that snapshot and the check; near a 2^32
// subspace boundary the moved edge changes the inferred high half, which
// would reject a legitimate packet. On ICV failure the inference is
// therefore redone against a fresh snapshot and retried once when it
// yields a different number. The admission itself needs no snapshot
// consistency: it admits the authenticated 64-bit value, which no longer
// depends on the edge.
func (i *InboundSA) verifyOneInto(dst []byte, wire []byte) (out []byte, v core.Verdict, err error) {
	if len(wire) < headerLen+icvLen {
		return dst, 0, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(wire))
	}
	spi, _ := ParseSPI(wire)
	if spi != i.spi {
		return dst, 0, fmt.Errorf("%w: packet SPI %#x, SA SPI %#x", ErrUnknownSPI, spi, i.spi)
	}
	lo, _ := ParseSeqLo(wire)
	seq64 := uint64(lo)
	var edge uint64
	if i.esn {
		edge = i.replay.Edge()
		seq64 = seqwin.InferESN(edge, lo, i.winW)
	}
	out, err = i.crypto.open(i.spi, seq64, wire, dst)
	if err != nil && i.esn {
		if e2 := i.replay.Edge(); e2 != edge {
			if s2 := seqwin.InferESN(e2, lo, i.winW); s2 != seq64 {
				if out2, err2 := i.crypto.open(i.spi, s2, wire, dst); err2 == nil {
					out, err, seq64 = out2, nil, s2
				}
			}
		}
	}
	if err != nil {
		return dst, 0, err
	}
	v = i.replay.Admit(seq64)
	if !v.Delivered() {
		// Drop the decrypted bytes: the caller's buffer length is restored.
		return dst, v, nil
	}
	return out, v, nil
}

// Open verifies wire bytes and returns the payload. The verdict reports the
// anti-replay decision; payload is non-nil only when verdict.Delivered().
// Following RFC 4303 the ICV is verified before the window is updated, so
// forged traffic cannot move the window; replayed-but-authentic traffic is
// then rejected by the window. Each delivered payload is freshly allocated;
// the steady-state datapath form is OpenAppend.
func (i *InboundSA) Open(wire []byte) ([]byte, core.Verdict, error) {
	return i.OpenAppend(nil, wire)
}

// OpenAppend is Open appending the decrypted payload to dst instead of
// allocating: on delivery the payload is out[len(dst):] of the returned
// slice; on any other outcome out retains dst's length. With a reused dst
// of sufficient capacity a steady-state OpenAppend performs zero
// allocations.
//
// dst's spare capacity must not overlap wire at all: the GCM open panics on
// an inexact overlap, and a failed open clears its output, which in place
// would wipe the ciphertext an ESN retry at a 2^32 boundary still needs.
func (i *InboundSA) OpenAppend(dst []byte, wire []byte) (out []byte, v core.Verdict, err error) {
	if i.bound != nil && i.State() == LifetimeHard {
		return dst, 0, ErrHardExpired
	}
	out, v, err = i.verifyOneInto(dst, wire)
	i.account(wire, v, err)
	return out, v, err
}

// account updates the SA counters for one verified (or rejected) packet.
func (i *InboundSA) account(wire []byte, v core.Verdict, err error) {
	if err != nil {
		if isAuthErr(err) {
			i.authFails.Add(1)
		}
		return
	}
	i.bytes.Add(uint64(len(wire)))
	i.packets.Add(1)
	if v == core.VerdictDuplicate || v == core.VerdictStale {
		i.replays.Add(1)
	}
}

// Counters returns (bytes, packets, authFailures, replayDiscards).
func (i *InboundSA) Counters() (bytes, packets, authFails, replays uint64) {
	return i.bytes.Load(), i.packets.Load(), i.authFails.Load(), i.replays.Load()
}

// bound is an SA's lifetime bound with the clock it is read on and the
// SA's birth on that clock. An SA without a bound, a gateway's default,
// holds a nil *bound and never reads a clock.
type bound struct {
	life Lifetime
	now  func() time.Duration
	born time.Duration
}

// newBound returns life's bound, starting now on clock (nil: a frozen
// clock), or nil for the zero Lifetime.
func newBound(life Lifetime, clock func() time.Duration) *bound {
	if life == (Lifetime{}) {
		return nil
	}
	b := &bound{life: life, now: clockOrZero(clock)}
	b.born = b.now()
	return b
}

func (b *bound) age() time.Duration { return b.now() - b.born }

// state classifies an SA that has carried bytes; a nil bound is always
// LifetimeOK.
func (b *bound) state(bytes uint64) LifetimeState {
	if b == nil {
		return LifetimeOK
	}
	l, age := b.life, b.age()
	if l.HardBytes > 0 && bytes >= l.HardBytes {
		return LifetimeHard
	}
	if l.HardTime > 0 && age >= l.HardTime {
		return LifetimeHard
	}
	if l.SoftBytes > 0 && bytes >= l.SoftBytes {
		return LifetimeSoft
	}
	if l.SoftTime > 0 && age >= l.SoftTime {
		return LifetimeSoft
	}
	return LifetimeOK
}

func isAuthErr(err error) bool { return errors.Is(err, ErrAuth) }

func clockOrZero(f func() time.Duration) func() time.Duration {
	if f == nil {
		return func() time.Duration { return 0 }
	}
	return f
}
