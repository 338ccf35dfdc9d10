package ipsec

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/seqwin"
	"antireplay/internal/stats"
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

// OutboundSA secures one direction of traffic: it numbers packets through
// the reset-resilient sender and seals them. Safe for concurrent use; the
// per-packet counters are atomics, so concurrent Seals serialize only on
// the sender's own sequence allocation.
type OutboundSA struct {
	spi    uint32
	keys   KeyMaterial
	crypto *cryptoPool
	seq    *core.Sender
	esn    bool
	life   Lifetime
	now    func() time.Duration
	born   time.Duration

	// lineage: generation number within a rekey chain and the SPI of the
	// predecessor generation (0 = first generation). Written once, by the
	// gateway rekey path, before the SA is published.
	generation uint64
	prevSPI    uint32
	draining   atomic.Bool

	bytes   atomic.Uint64
	packets atomic.Uint64
}

// NewOutboundSA builds an outbound SA. sender provides the sequence-number
// service (configure its SAVE/FETCH behaviour there); esn declares whether
// the peer reconstructs 64-bit extended sequence numbers — without it the
// SA hard-fails with ErrSeqExhausted before the 32-bit wire number can
// wrap; clock may be nil.
func NewOutboundSA(spi uint32, keys KeyMaterial, sender *core.Sender, esn bool, life Lifetime, clock func() time.Duration) (*OutboundSA, error) {
	if err := keys.Validate(); err != nil {
		return nil, err
	}
	if sender == nil {
		return nil, fmt.Errorf("%w: nil sender", core.ErrConfig)
	}
	o := &OutboundSA{
		spi: spi, keys: keys, crypto: newCryptoPool(keys),
		seq: sender, esn: esn, life: life, now: clockOrZero(clock),
	}
	o.born = o.now()
	return o, nil
}

// SPI returns the SA's security parameter index.
func (o *OutboundSA) SPI() uint32 { return o.spi }

// Sender exposes the underlying sequence-number sender (for reset/wake).
func (o *OutboundSA) Sender() *core.Sender { return o.seq }

// Generation returns the SA's position in its rekey chain (0 for an SA that
// never rekeyed).
func (o *OutboundSA) Generation() uint64 { return o.generation }

// PrevSPI returns the SPI of the generation this SA replaced (0 = none).
func (o *OutboundSA) PrevSPI() uint32 { return o.prevSPI }

// setLineage records the rekey chain position; called by the gateway before
// the SA is published.
func (o *OutboundSA) setLineage(gen uint64, prev uint32) {
	o.generation, o.prevSPI = gen, prev
}

// BeginDrain retires the SA from new traffic: every later Seal fails with
// ErrDraining. The rekey cutover calls this on the old generation the
// moment its successor owns the SPD entry, so a stale handle cannot keep
// emitting packets the peer will soon stop accepting. Reversed only by
// Gateway.RevertOutbound when a wider rollover fails before the peer cut
// over.
func (o *OutboundSA) BeginDrain() { o.draining.Store(true) }

// endDrain returns the SA to service; only the gateway's rollback path
// (RevertOutbound) may call it.
func (o *OutboundSA) endDrain() { o.draining.Store(false) }

// Draining reports whether BeginDrain has retired the SA.
func (o *OutboundSA) Draining() bool { return o.draining.Load() }

// reserve atomically checks the hard lifetime and accounts n wire bytes and
// one packet in a single step, so that concurrent Seals cannot all pass a
// stale check and collectively overshoot HardBytes: each successful CAS
// observes a byte count strictly below the bound, and once the bound is
// reached every later attempt fails. The one packet that crosses the
// boundary is allowed, as with any in-flight packet at expiry.
func (o *OutboundSA) reserve(n uint64) error {
	if o.life.HardTime > 0 && o.now()-o.born >= o.life.HardTime {
		return ErrHardExpired
	}
	if o.life.HardBytes == 0 {
		// No byte bound: plain wait-free accounting, no CAS retries on the
		// hot path.
		o.bytes.Add(n)
		o.packets.Add(1)
		return nil
	}
	for {
		cur := o.bytes.Load()
		if o.life.HardBytes > 0 && cur >= o.life.HardBytes {
			return ErrHardExpired
		}
		if o.bytes.CompareAndSwap(cur, cur+n) {
			o.packets.Add(1)
			return nil
		}
	}
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
		// number cycle — reusing a wire number would also reuse the CTR
		// nonce. The SA is permanently exhausted; rekey to continue.
		return dst, fmt.Errorf("%w: sequence %d exceeds the 32-bit wire space", ErrSeqExhausted, seq64)
	}
	return sealAppendState(o.crypto, o.spi, seq64, payload, dst), nil
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
// per packet (core.Sender.Next takes the sender's mutex; the receive side is
// the wait-free one), the AES key schedule and HMAC state are pooled per SA,
// and the wire is built in place. On error dst is returned unchanged.
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

// State classifies the SA's lifetime position.
func (o *OutboundSA) State() LifetimeState {
	return lifetimeState(o.life, o.bytes.Load(), o.now()-o.born)
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
	spi     uint32
	keys    KeyMaterial
	crypto  *cryptoPool
	replay  *core.Receiver
	esn     bool
	winW    int  // receiver window width, immutable
	hasLife bool // any lifetime bound set; false skips per-packet checks
	life    Lifetime
	now     func() time.Duration
	born    time.Duration

	// lineage: see OutboundSA. An inbound SA keeps verifying while
	// draining — the whole point of the drain window is that in-flight
	// packets on the old SPI are still authenticated and admitted until
	// the grace period retires the SA.
	generation uint64
	prevSPI    uint32
	draining   atomic.Bool

	// Per-packet tallies are sharded so a many-queue gateway's counters do
	// not serialize its admission path on one cache line, and packed into
	// one Tallies block — the four counters move together per packet, and
	// four separate ShardedCounters would cost 4 KiB per SA where the block
	// costs 1 KiB, the dominant term at million-SA scale. (The outbound
	// byte counter stays a single atomic: hard-lifetime reservation CASes
	// it, which a sharded counter cannot do.)
	tallies stats.Tallies
}

// Lane indices into InboundSA.tallies.
const (
	tallyBytes = iota
	tallyPackets
	tallyAuthFails
	tallyReplays
)

// NewInboundSA builds an inbound SA. receiver provides the anti-replay
// service; esn enables 64-bit extended sequence number reconstruction.
func NewInboundSA(spi uint32, keys KeyMaterial, receiver *core.Receiver, esn bool, life Lifetime, clock func() time.Duration) (*InboundSA, error) {
	if err := keys.Validate(); err != nil {
		return nil, err
	}
	if receiver == nil {
		return nil, fmt.Errorf("%w: nil receiver", core.ErrConfig)
	}
	i := &InboundSA{
		spi: spi, keys: keys, crypto: newCryptoPool(keys), replay: receiver,
		esn: esn, winW: receiver.W(), hasLife: life != Lifetime{},
		life: life, now: clockOrZero(clock),
	}
	i.born = i.now()
	return i, nil
}

// SPI returns the SA's security parameter index.
func (i *InboundSA) SPI() uint32 { return i.spi }

// Receiver exposes the underlying anti-replay receiver (for reset/wake).
func (i *InboundSA) Receiver() *core.Receiver { return i.replay }

// Generation returns the SA's position in its rekey chain (0 for an SA that
// never rekeyed).
func (i *InboundSA) Generation() uint64 { return i.generation }

// PrevSPI returns the SPI of the generation this SA replaced (0 = none).
func (i *InboundSA) PrevSPI() uint32 { return i.prevSPI }

// setLineage records the rekey chain position; called by the gateway before
// the SA is published.
func (i *InboundSA) setLineage(gen uint64, prev uint32) {
	i.generation, i.prevSPI = gen, prev
}

// BeginDrain marks the SA as superseded by a rekey. Unlike the outbound
// side, a draining inbound SA still verifies and admits traffic — in-flight
// packets sealed under the old SPI before the cutover must not be dropped —
// but the mark tells operators (and the rekey orchestrator's grace timer)
// that the SA is due for removal. Irreversible.
func (i *InboundSA) BeginDrain() { i.draining.Store(true) }

// Draining reports whether BeginDrain has marked the SA.
func (i *InboundSA) Draining() bool { return i.draining.Load() }

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
	out, err = openAppendState(i.crypto, i.spi, seq64, wire, dst)
	if err != nil && i.esn {
		if e2 := i.replay.Edge(); e2 != edge {
			if s2 := seqwin.InferESN(e2, lo, i.winW); s2 != seq64 {
				if out2, err2 := openAppendState(i.crypto, i.spi, s2, wire, dst); err2 == nil {
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
func (i *InboundSA) OpenAppend(dst []byte, wire []byte) (out []byte, v core.Verdict, err error) {
	if i.hasLife && i.State() == LifetimeHard {
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
			i.tallies.Add(tallyAuthFails, 1)
		}
		return
	}
	i.tallies.Add(tallyBytes, uint64(len(wire)))
	i.tallies.Add(tallyPackets, 1)
	if v == core.VerdictDuplicate || v == core.VerdictStale {
		i.tallies.Add(tallyReplays, 1)
	}
}

// State classifies the SA's lifetime position.
func (i *InboundSA) State() LifetimeState {
	if !i.hasLife {
		return LifetimeOK
	}
	return lifetimeState(i.life, i.tallies.Value(tallyBytes), i.now()-i.born)
}

// Counters returns (bytes, packets, authFailures, replayDiscards).
func (i *InboundSA) Counters() (bytes, packets, authFails, replays uint64) {
	return i.tallies.Value(tallyBytes), i.tallies.Value(tallyPackets),
		i.tallies.Value(tallyAuthFails), i.tallies.Value(tallyReplays)
}

func lifetimeState(l Lifetime, bytes uint64, age time.Duration) LifetimeState {
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
