// Package tunnel bundles both directions of an IPsec association at one
// host — the paper's §6 observation that "usually an IPsec communication
// between two hosts is bi-directional, which means that a sender is also a
// receiver and vice versa" — and automates the whole reset lifecycle:
//
//   - Send seals application payloads through the outbound SA;
//   - Receive opens wire bytes, auto-answers DPD probes, feeds the liveness
//     monitor, and hands data payloads to the application;
//   - Reset crashes both halves of the host;
//   - Wake recovers both (FETCH + leap + SAVE) and announces the
//     resurrection with the secured "I am up" message, which the peer's
//     window provably cannot confuse with a replay.
//
// A Peer is one SA pair for life: there is no in-place rekey. Rollover is
// internal/rekey's — make-before-break between two gateways, the old
// generation drained and its journal cells tombstoned.
package tunnel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/dpd"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// Sentinel errors.
var (
	// ErrNoTransport reports a Send with no transport configured.
	ErrNoTransport = errors.New("tunnel: no transport configured")
	// ErrNotRecovered reports an operation on a host whose wake failed.
	ErrNotRecovered = errors.New("tunnel: host has not recovered")
)

// StoreFactory builds the durable cell for a (SPI, direction) pair.
// Directions are "tx" and "rx". A durable factory hands out the cells of one
// store.Lanes medium, keyed per SA and direction as a gateway's are.
type StoreFactory func(spi uint32, direction string) store.Store

// MemStores is a StoreFactory producing independent in-memory stores.
func MemStores(uint32, string) store.Store { return &store.Mem{} }

// Config parameterizes one Peer (one host's half of the association).
type Config struct {
	// Name labels the host (e.g. "east").
	Name string
	// K is the SAVE interval for both directions. Required.
	K uint64
	// W is the anti-replay window width (0 = 64).
	W int
	// Stores builds durable cells per SA; nil means MemStores.
	Stores StoreFactory
	// Savers, when non-nil, supplies the BackgroundSaver for a given store
	// (e.g. a netsim.SimSaver factory); nil means synchronous saves.
	Savers func(st store.Store) core.BackgroundSaver
	// Transport transmits sealed wire bytes toward the peer. Required for
	// Send/Wake; may be set later with SetTransport.
	Transport func(wire []byte)
	// OnData receives delivered application payloads.
	OnData func(payload []byte)
	// Monitor, when non-nil, is fed by inbound traffic and probe acks.
	Monitor *dpd.Monitor
	// OnVerdict, when non-nil, observes every Receive's anti-replay
	// verdict (delivered or not) before payload dispatch. This is the
	// goodput-SLO measurement point: campaign harnesses count stale and
	// duplicate discards here to price an attack's degradation, without
	// touching the datapath. Called inline on the receive path.
	OnVerdict func(v core.Verdict)
	// Lifetime bounds each SA generation.
	Lifetime ipsec.Lifetime
	// Clock supplies lifetime timestamps; nil means zero.
	Clock func() time.Duration
}

func (c Config) validate() error {
	if c.K == 0 {
		return fmt.Errorf("%w: K required", core.ErrConfig)
	}
	return nil
}

// transportFn aliases the wire-transmit callback so it can live behind an
// atomic.Pointer.
type transportFn = func(wire []byte)

// Peer is one host's bidirectional endpoint.
type Peer struct {
	cfg Config

	// transport is the current wire-transmit callback. It is read on the
	// datapath (Send, probe auto-ack, AnnounceWhenUp) and may be replaced
	// concurrently (failover re-pointing a standby), so it lives behind an
	// atomic pointer rather than in cfg.
	transport atomic.Pointer[transportFn]

	out *ipsec.OutboundSA
	in  *ipsec.InboundSA
}

// New builds a peer with the given keys and SPIs: outKeys/outSPI secure
// traffic this host sends; inKeys/inSPI traffic it receives.
func New(cfg Config, outSPI uint32, outKeys ipsec.KeyMaterial, inSPI uint32, inKeys ipsec.KeyMaterial) (*Peer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Stores == nil {
		cfg.Stores = MemStores
	}
	p := &Peer{cfg: cfg}
	if cfg.Transport != nil {
		p.transport.Store(&cfg.Transport)
	}
	txStore := p.cfg.Stores(outSPI, "tx")
	rxStore := p.cfg.Stores(inSPI, "rx")

	var txSaver, rxSaver core.BackgroundSaver
	if p.cfg.Savers != nil {
		txSaver = p.cfg.Savers(txStore)
		rxSaver = p.cfg.Savers(rxStore)
	}
	// StrictHorizon is on for both directions: the tunnel is the
	// production-facing composition, and the guard makes the paper's
	// no-duplicate-delivery theorem unconditional (see the receiver-side
	// analysis gap documented in README.md) at the cost of backpressure /
	// bounded drops when persistence lags.
	snd, err := core.NewSender(core.SenderConfig{
		K: p.cfg.K, Store: txStore, Saver: txSaver,
		StrictHorizon: true,
	})
	if err != nil {
		return nil, fmt.Errorf("tunnel: %s sender: %w", p.cfg.Name, err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{
		K: p.cfg.K, W: p.cfg.W, Store: rxStore, Saver: rxSaver,
		StrictHorizon: true,
	})
	if err != nil {
		return nil, fmt.Errorf("tunnel: %s receiver: %w", p.cfg.Name, err)
	}
	out, err := ipsec.NewOutboundSA(outSPI, outKeys, snd, true, p.cfg.Lifetime, p.cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("tunnel: %s outbound SA: %w", p.cfg.Name, err)
	}
	in, err := ipsec.NewInboundSA(inSPI, inKeys, rcv, true, p.cfg.Lifetime, p.cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("tunnel: %s inbound SA: %w", p.cfg.Name, err)
	}
	p.out, p.in = out, in
	// Over cells a prior life used, both halves were born down; on fresh
	// ones this is a no-op.
	rcv.Wake()
	snd.Wake()
	return p, nil
}

// SetTransport installs or replaces the wire transport. It is safe to call
// concurrently with Send/Receive: in-flight datapath operations finish on
// the transport they loaded, later ones see the replacement.
func (p *Peer) SetTransport(send func(wire []byte)) {
	if send == nil {
		p.transport.Store(nil)
		return
	}
	p.transport.Store(&send)
}

// transportFunc loads the current transport (nil if none installed).
func (p *Peer) transportFunc() transportFn {
	if fp := p.transport.Load(); fp != nil {
		return *fp
	}
	return nil
}

// Outbound exposes the sending half (e.g. for stats).
func (p *Peer) Outbound() *ipsec.OutboundSA { return p.out }

// Send seals payload and transmits it.
func (p *Peer) Send(payload []byte) error {
	transport := p.transportFunc()
	if transport == nil {
		return ErrNoTransport
	}
	wire, err := p.out.Seal(payload)
	if err != nil {
		return err
	}
	transport(wire)
	return nil
}

// Receive processes wire bytes from the peer: verification, anti-replay,
// DPD dispatch, data delivery. Control payloads (probes, acks, resync) are
// consumed here; data payloads go to OnData. The returned verdict reports
// the anti-replay decision; err covers authentication and parse failures.
func (p *Peer) Receive(wire []byte) (core.Verdict, error) {
	payload, verdict, err := p.in.Open(wire)
	if p.cfg.OnVerdict != nil && err == nil {
		p.cfg.OnVerdict(verdict)
	}
	if err != nil {
		return verdict, err
	}
	if !verdict.Delivered() {
		return verdict, nil
	}
	// Authenticated, fresh traffic: proof of life.
	if p.cfg.Monitor != nil {
		p.cfg.Monitor.NoteInbound()
	}
	if kind, seq, ok := dpd.ParsePayload(payload); ok {
		switch kind {
		case "probe":
			// Auto-acknowledge R-U-THERE.
			if transport := p.transportFunc(); transport != nil {
				if wire, err := p.out.Seal(dpd.AckPayload(seq)); err == nil {
					transport(wire)
				}
			}
		case "ack":
			if p.cfg.Monitor != nil {
				p.cfg.Monitor.NoteAck(seq)
			}
		case "resync":
			// The secured "I am up": nothing beyond NoteInbound needed —
			// its fresh (leaped) sequence number already proved itself.
		}
		return verdict, nil
	}
	if p.cfg.OnData != nil {
		p.cfg.OnData(payload)
	}
	return verdict, nil
}

// Reset crashes the host: both directions lose their volatile state.
func (p *Peer) Reset() {
	p.out.Sender().Reset()
	p.in.Receiver().Reset()
}

// Wake recovers both directions and, once the sender half is serving again,
// transmits the §6 "I am up" announcement. With synchronous savers the
// announcement goes out before Wake returns; with background savers it is
// sent by the completion callback via AnnounceWhenUp.
func (p *Peer) Wake() error {
	p.in.Receiver().Wake()
	p.out.Sender().Wake()
	return p.AnnounceWhenUp()
}

// AnnounceWhenUp sends the resurrection announcement if the sender half is
// up; it reports ErrNotRecovered while the post-wake SAVE is still running
// (call again from the saver's completion, or poll).
//
// The announcement is sent twice: the wake-up leap puts our sequence
// numbers up to 2K beyond what the peer's strict durable horizon may cover,
// so the peer can drop the first copy while starting the save that extends
// its horizon; with synchronous persistence the second copy then lands.
// (Under asynchronous persistence the peer revives at the latest with the
// first data packet after its horizon save commits.)
func (p *Peer) AnnounceWhenUp() error {
	if p.out.Sender().State() != core.StateUp {
		if err := p.out.Sender().LastWakeError(); err != nil {
			return fmt.Errorf("tunnel: %s wake: %w", p.cfg.Name, err)
		}
		return ErrNotRecovered
	}
	transport := p.transportFunc()
	if transport == nil {
		return nil
	}
	for i := 0; i < 2; i++ {
		wire, err := p.out.Seal(dpd.ResyncPayload())
		if err != nil {
			return err
		}
		transport(wire)
	}
	return nil
}
