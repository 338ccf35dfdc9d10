package ipsec

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// GatewayConfig configures a Gateway. There is no switch for the durable
// horizon: every SA is strict (core.SenderConfig.StrictHorizon), because a
// shared saver pool queues one SA's SAVE behind the others' and K sized for
// one SA's save latency is not sized for that.
type GatewayConfig struct {
	// Journal is the shared durable medium for every SA's counter: one
	// lane (store.LanesCount(1)) for a small tunnel endpoint, the default
	// (one lane per pool worker) for a million-SA gateway. Required.
	Journal *store.Lanes
	// Pool executes the SAs' background SAVEs. Nil creates a pool of
	// store.DefaultPoolWorkers workers owned (drained and stopped) by the
	// gateway. A caller-provided pool is not closed by the gateway: close
	// it before Gateway.Close, or its queued saves race the journal
	// closing.
	Pool *store.SaverPool
	// K is the SAVE interval applied to each SA's sender/receiver.
	// Zero means DefaultGatewayK.
	K uint64
	// W is the anti-replay window width for inbound SAs. Zero means 64.
	W int
	// ESN enables 64-bit extended sequence numbers on inbound SAs.
	ESN bool
	// Lifetime bounds each SA; the zero value means unbounded.
	Lifetime Lifetime
	// Clock feeds SA lifetime accounting; nil means a frozen clock.
	Clock func() time.Duration
	// OnLifecycle, if non-nil, observes population-wide lifecycle
	// transitions: kind is "reset", "wake", "wake-done", or "wake-failed",
	// and sas counts the SAs it covered ("wake-failed": those that failed).
	// Called from ResetAll/WakeAll on the caller's goroutine; keep it fast
	// (the telemetry event ring's Record is the intended consumer).
	OnLifecycle func(kind string, sas int)
}

// DefaultGatewayK is the SAVE interval used when GatewayConfig.K is zero —
// the paper's §4 sizing example (100µs save / 4µs send).
const DefaultGatewayK = 25

// Gateway is a multi-SA IPsec endpoint whose every security association
// persists its counter into one shared store.Lanes through one shared
// SaverPool: the gateway-scale deployment of the paper's SAVE/FETCH
// protocol. Where the one-file-one-goroutine-per-SA pattern costs a file
// descriptor, a goroutine, and a private fsync stream per tunnel, a Gateway
// holds one log file a lane and a bounded worker pool, and concurrent SAVEs
// across SAs group-commit under shared fsyncs.
//
// Outbound SAs register into an SPD keyed by traffic selectors; inbound SAs
// into a SAD keyed by SPI; both are read without locks. ResetAll / WakeAll
// drive the paper's reset protocol across the whole SA population — the §3
// "host with multiple existing SAs" scenario — with recovery cost one
// journal replay instead of one IKE renegotiation per SA.
//
// Registering an SA over an empty cell only stages its initial counter; the
// SA's first Seal or Open waits until it is durable, so a lane's
// registrations share one commit, paid by the first packet to come, and
// AddOutbound/AddInbound cost CPU, not fsyncs.
//
// Every SA runs with the strict durable horizon, so the paper's no-reuse
// and no-replay guarantees hold even when pool queueing lets the
// durable counter lag more than 2K: Seal then returns core.ErrSaveLag
// (back off and retry) and inbound delivery briefly discards
// (core.VerdictHorizon) until the lagging save lands.
//
// Gateway is safe for concurrent use.
type Gateway struct {
	cfg     GatewayConfig
	pool    *store.SaverPool
	ownPool bool
	sad     *SAD
	spd     *SPD

	// mu serializes registry writes (SAD, outbound list) with closed, so the
	// cells the gateway owns are its registered SAs', which Close releases.
	mu     sync.Mutex
	closed bool
	// outbound SAs are tracked here, not read back from the SPD: a drained
	// predecessor stays registered after a cutover has taken it out of the
	// SPD. The slice keeps registration order, which is allocation order,
	// so a walk over it (ResetAll, WakeAll) reads memory in the order it was
	// laid out; outSPI finds an SA by SPI. A removal leaves a nil hole at
	// the SA's stamped position (OutboundSA.reg), and the holes are swept
	// once they pass half the slice. Inbound SAs live only in the SAD.
	outbound []*OutboundSA
	holes    int
	outSPI   map[uint32]*OutboundSA
	wakeMu   sync.Mutex // WakeAlls run one after another
	// retireMu orders removals against WakeAll's lanes: retireCell holds it
	// from Reset to tombstone and counts retired; a lane begins its wakes
	// under a read hold and skips SAs removed since WakeAll's snapshot.
	retireMu sync.RWMutex
	retired  atomic.Uint64
}

// cellID is an SA's journal cell as one word: the SPI, with bit 32 set for
// an inbound SA. It formats the journal key (OutboundKey, InboundKey) only
// where the journal takes one.
type cellID uint64

func outboundCell(spi uint32) cellID { return cellID(spi) }
func inboundCell(spi uint32) cellID  { return 1<<32 | cellID(spi) }
func (c cellID) key() string         { return spiKey([2]string{"tx/", "rx/"}[c>>32], uint32(c)) }
func (c cellID) String() string {
	return fmt.Sprintf("%s %#x", [2]string{"outbound", "inbound"}[c>>32], uint32(c))
}

// claimCell claims journal cell c for an SA about to be built. An existing
// claim maps to ErrDuplicateSPI (two endpoints over one cell would
// interleave counters); other failures — e.g. a closed journal or gateway
// — pass through untouched. The claim is the builder's until the SA is
// registered (lockRegistry), the gateway's from then on.
func (g *Gateway) claimCell(c cellID) (*store.Cell, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("ipsec: gateway %v: %w", c, store.ErrClosed)
	}
	cell, err := g.cfg.Journal.ClaimCell(c.key())
	if errors.Is(err, store.ErrCellClaimed) {
		return nil, fmt.Errorf("%w: %v: %w", ErrDuplicateSPI, c, err)
	} else if err != nil {
		return nil, fmt.Errorf("ipsec: gateway %v: %w", c, err)
	}
	return cell, nil
}

// releaseCell drops a claim an unregistered SA's build took.
func (g *Gateway) releaseCell(c cellID) { g.cfg.Journal.ReleaseCell(c.key()) }

// lockRegistry takes g.mu to register the SA built over cell c. Once Close
// has run it instead releases the build's claim — Close released only the
// registered SAs' — and returns ErrClosed with g.mu not held.
func (g *Gateway) lockRegistry(c cellID) error {
	g.mu.Lock()
	if !g.closed {
		return nil
	}
	g.mu.Unlock()
	g.releaseCell(c)
	return fmt.Errorf("ipsec: gateway %v: %w", c, store.ErrClosed)
}

// NewGateway validates cfg and returns an empty gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Journal == nil {
		return nil, fmt.Errorf("%w: gateway requires a journal", core.ErrConfig)
	}
	if cfg.K == 0 {
		cfg.K = DefaultGatewayK
	}
	g := &Gateway{
		cfg:    cfg,
		pool:   cfg.Pool,
		sad:    NewSAD(),
		spd:    NewSPD(),
		outSPI: make(map[uint32]*OutboundSA),
	}
	if g.pool == nil {
		g.pool = store.NewSaverPool(0)
		g.ownPool = true
	}
	return g, nil
}

const hexDigits = "0123456789abcdef"

// spiKey builds "<dir>/<spi as %08x>" with a fixed-width hex encoder: one
// string allocation, no fmt machinery. The byte layout is pinned by
// TestKeyFormatCompat — these strings are on-disk journal keys, so existing
// journals must replay under exactly the same names forever.
func spiKey(dir string, spi uint32) string {
	var b [11]byte
	copy(b[:3], dir)
	for i := 0; i < 8; i++ {
		b[3+i] = hexDigits[(spi>>(28-4*i))&0xf]
	}
	return string(b[:])
}

// OutboundKey is the journal key of an outbound SA's counter.
func OutboundKey(spi uint32) string { return spiKey("tx/", spi) }

// InboundKey is the journal key of an inbound SA's window edge.
func InboundKey(spi uint32) string { return spiKey("rx/", spi) }

// buildOutbound claims the journal cell for spi and constructs the SA over a
// resilient sender. Over an empty cell the SA is up with its birth staged;
// over a cell a prior life used, core holds it down (StateDown) until the
// caller's WakeAll wakes it with the rest of its lane. The SA is not yet
// registered; on error the claim is already released. Keys are checked
// before the claim: a cell the sender has touched holds its birth, and a
// retry over it would be born down.
func (g *Gateway) buildOutbound(spi uint32, keys KeyMaterial) (*OutboundSA, error) {
	if err := keys.Validate(); err != nil {
		return nil, fmt.Errorf("ipsec: gateway outbound %#x: %w", spi, err)
	}
	c := outboundCell(spi)
	cell, err := g.claimCell(c)
	if err != nil {
		return nil, err
	}
	snd, err := core.NewSender(core.SenderConfig{
		K:             g.cfg.K,
		Store:         cell,
		Saver:         g.pool.Saver(cell),
		StrictHorizon: true,
	})
	var sa *OutboundSA
	if err == nil {
		sa, err = NewOutboundSA(spi, keys, snd, g.cfg.ESN, g.cfg.Lifetime, g.cfg.Clock)
	}
	if err != nil {
		g.releaseCell(c)
		return nil, fmt.Errorf("ipsec: gateway outbound %#x: %w", spi, err)
	}
	return sa, nil
}

// AddOutbound creates an outbound SA whose sender persists into the shared
// journal under OutboundKey(spi), registers it in the SPD under sel, and
// returns it. The journal cell is claimed exclusively: reusing a live SPI —
// even from another gateway sharing the journal — is refused with
// ErrDuplicateSPI, because two senders over one cell would emit overlapping
// sequence numbers after a wake. Over an empty cell the SA is up at once;
// its first Seal waits for the staged initial counter to be durable. If the
// journal already holds state for the SPI (a prior process life), the SA is
// down (core.ErrDown) until WakeAll runs the paper's wake-up (FETCH + 2K
// leap + SAVE) on it with the rest of its commit lane.
func (g *Gateway) AddOutbound(spi uint32, keys KeyMaterial, sel Selector) (*OutboundSA, error) {
	sa, err := g.buildOutbound(spi, keys)
	if err != nil {
		return nil, err
	}
	if err := g.lockRegistry(outboundCell(spi)); err != nil {
		return nil, err
	}
	g.registerOutboundLocked(sa)
	g.spd.Add(sel, sa)
	g.mu.Unlock()
	return sa, nil
}

// RekeyOutbound performs the outbound half of a make-before-break rollover:
// it builds a successor SA for newSPI (counter staged in the shared journal
// before the cutover, durable before its first number — a reset mid-rekey
// recovers both generations independently), atomically repoints every SPD
// entry from the old SA to the successor, and retires the old SA from new
// traffic (BeginDrain: further Seals on it fail with ErrDraining). The old
// SA stays registered so its journal cell remains owned; retire it with
// RemoveOutbound once the peer has confirmed its inbound cutover and any
// in-flight packets have drained.
//
// The successor records its lineage: Generation is the old SA's plus one and
// PrevSPI names the old SPI. A successor whose SPI has a prior life in the
// journal is down, as in AddOutbound, until the next WakeAll.
func (g *Gateway) RekeyOutbound(oldSPI, newSPI uint32, keys KeyMaterial) (*OutboundSA, error) {
	old := g.findOutbound(oldSPI)
	if old == nil {
		return nil, fmt.Errorf("ipsec: rekey outbound %#x: %w: no such SA", oldSPI, ErrUnknownSPI)
	}
	sa, err := g.buildOutbound(newSPI, keys)
	if err != nil {
		return nil, err
	}
	sa.setLineage(old.Generation()+1, oldSPI)
	if err := g.lockRegistry(outboundCell(newSPI)); err != nil {
		return nil, err
	}
	g.registerOutboundLocked(sa)
	g.spd.Replace(old, sa) // the cutover: one atomic repoint under the SPD lock
	g.mu.Unlock()
	old.BeginDrain()
	return sa, nil
}

// RevertOutbound undoes a RekeyOutbound whose wider rollover failed before
// the peer cut its side over: the old SA resumes sealing, every SPD entry
// is repointed back from the successor to it, and the successor is
// unregistered with its journal cell retired (so its SPI and counter leave
// no residue). Reports whether both SAs were registered. The brief window
// in which the SPD already points at the old SA while it still refuses
// seals surfaces as ErrDraining — the same bounded backpressure as
// ErrSaveLag, cleared by the endDrain below.
func (g *Gateway) RevertOutbound(oldSPI, newSPI uint32) bool {
	g.mu.Lock()
	old, nu := g.outSPI[oldSPI], g.outSPI[newSPI]
	if g.closed || old == nil || nu == nil {
		g.mu.Unlock()
		return false
	}
	g.unregisterOutboundLocked(nu)
	g.spd.Replace(nu, old)
	g.mu.Unlock()
	old.endDrain()
	nu.BeginDrain()
	g.retireCell(outboundCell(newSPI), nu.Sender().Reset, nu.Sender().Saver(), true) //nolint:errcheck // see removeInbound
	return true
}

// findOutbound returns the registered outbound SA with the given SPI.
func (g *Gateway) findOutbound(spi uint32) *OutboundSA {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.outSPI[spi]
}

// registerOutboundLocked records sa as registered, last in order.
func (g *Gateway) registerOutboundLocked(sa *OutboundSA) {
	sa.reg = int32(len(g.outbound))
	g.outbound = append(g.outbound, sa)
	g.outSPI[sa.SPI()] = sa
}

// unregisterOutboundLocked forgets the registered outbound SA sa: its
// position becomes a hole, and once holes pass half the list one pass
// closes them, keeping the order, so a removal is amortized O(1).
func (g *Gateway) unregisterOutboundLocked(sa *OutboundSA) {
	delete(g.outSPI, sa.spi)
	g.outbound[sa.reg] = nil
	if g.holes++; 2*g.holes <= len(g.outbound) {
		return
	}
	kept := g.outbound[:0]
	for _, o := range g.outbound {
		if o != nil {
			o.reg = int32(len(kept))
			kept = append(kept, o)
		}
	}
	clear(g.outbound[len(kept):])
	g.outbound, g.holes = kept, 0
}

// Outbound returns the registered outbound SA with the given SPI — the
// outbound analogue of SAD().Lookup, used by lifecycle machinery (rekey
// orchestration, lifetime monitoring) that addresses SAs by SPI rather than
// by traffic selector.
func (g *Gateway) Outbound(spi uint32) (*OutboundSA, bool) {
	sa := g.findOutbound(spi)
	return sa, sa != nil
}

// buildInbound claims the journal cell for spi and constructs the SA over a
// resilient receiver; see buildOutbound (including the down state over a
// used cell and why keys are checked first).
func (g *Gateway) buildInbound(spi uint32, keys KeyMaterial) (*InboundSA, error) {
	if err := keys.Validate(); err != nil {
		return nil, fmt.Errorf("ipsec: gateway inbound %#x: %w", spi, err)
	}
	c := inboundCell(spi)
	cell, err := g.claimCell(c)
	if err != nil {
		return nil, err
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{
		K:             g.cfg.K,
		W:             g.cfg.W,
		Store:         cell,
		Saver:         g.pool.Saver(cell),
		StrictHorizon: true,
	})
	var sa *InboundSA
	if err == nil {
		sa, err = NewInboundSA(spi, keys, rcv, g.cfg.ESN, g.cfg.Lifetime, g.cfg.Clock)
	}
	if err != nil {
		g.releaseCell(c)
		return nil, fmt.Errorf("ipsec: gateway inbound %#x: %w", spi, err)
	}
	return sa, nil
}

// AddInbound creates an inbound SA whose receiver persists into the shared
// journal under InboundKey(spi), registers it in the SAD, and returns it.
// Duplicate SPIs and prior journal state (down until WakeAll) are handled
// as in AddOutbound.
func (g *Gateway) AddInbound(spi uint32, keys KeyMaterial) (*InboundSA, error) {
	sa, err := g.buildInbound(spi, keys)
	if err != nil {
		return nil, err
	}
	if err := g.lockRegistry(inboundCell(spi)); err != nil {
		return nil, err
	}
	g.sad.Add(sa)
	g.mu.Unlock()
	return sa, nil
}

// RekeyInbound performs the inbound "make" half of a make-before-break
// rollover: the successor SA for newSPI is installed in the SAD — its window
// edge staged in the journal, durable before its first delivery — while the
// old SA keeps verifying, so the peer can cut its outbound side over
// whenever it likes and packets of both generations authenticate during the
// overlap. The old SA is deliberately NOT marked draining here: the make
// step can still be rolled back if the wider rollover fails, and until the
// cutover actually happens the old generation is simply live. The
// orchestrator marks it draining (InboundSA.BeginDrain, advisory — it still
// verifies) once both outbound sides have cut over, and retires it with
// RemoveInbound after the grace window. The successor records its lineage,
// and is down over a prior life until the next WakeAll, as in RekeyOutbound.
func (g *Gateway) RekeyInbound(oldSPI, newSPI uint32, keys KeyMaterial) (*InboundSA, error) {
	old, ok := g.sad.Lookup(oldSPI)
	if !ok {
		return nil, fmt.Errorf("ipsec: rekey inbound %#x: %w: no such SA", oldSPI, ErrUnknownSPI)
	}
	sa, err := g.buildInbound(newSPI, keys)
	if err != nil {
		return nil, err
	}
	sa.setLineage(old.Generation()+1, oldSPI)
	if err := g.lockRegistry(inboundCell(newSPI)); err != nil {
		return nil, err
	}
	g.sad.Add(sa)
	g.mu.Unlock()
	return sa, nil
}

// Seal routes payload through the SPD and seals it on the matching SA: the
// allocating form of SealAppend, nil on error.
func (g *Gateway) Seal(src, dst netip.Addr, payload []byte) ([]byte, error) {
	wire, err := g.SealAppend(make([]byte, 0, len(payload)+Overhead), src, dst, payload)
	if err != nil {
		return nil, err
	}
	return wire, nil
}

// SealAppend routes payload through the SPD and seals it on the matching SA,
// appending the wire bytes to buf (OutboundSA.SealAppend): the gateway-level
// zero-allocation send path — the SPD lookup is one atomic snapshot load and
// the seal shares the SA's AES-GCM state and reuses the caller's buffer.
func (g *Gateway) SealAppend(buf []byte, src, dst netip.Addr, payload []byte) ([]byte, error) {
	sa, ok := g.spd.Lookup(src, dst)
	if !ok {
		return buf, fmt.Errorf("%w: %v -> %v", ErrNoPolicy, src, dst)
	}
	return sa.SealAppend(buf, payload)
}

// Open routes wire bytes through the SAD and opens them on the SA named by
// their SPI: the allocating form of OpenAppend.
func (g *Gateway) Open(wire []byte) ([]byte, core.Verdict, error) {
	return g.OpenAppend(nil, wire)
}

// OpenAppend routes wire bytes through the SAD and opens them on the SA
// named by their SPI, appending the payload to buf (InboundSA.OpenAppend):
// the gateway-level zero-allocation receive path. On delivery the payload
// is out[len(buf):]; on any other outcome out retains buf's length.
func (g *Gateway) OpenAppend(buf []byte, wire []byte) (out []byte, v core.Verdict, err error) {
	spi, err := ParseSPI(wire)
	if err != nil {
		return buf, 0, err
	}
	sa, ok := g.sad.Lookup(spi)
	if !ok {
		return buf, 0, fmt.Errorf("%w: %#x", ErrUnknownSPI, spi)
	}
	return sa.OpenAppend(buf, wire)
}

// SAD exposes the inbound database for lookups. Its entries are the
// gateway's own: an SA in it is one whose journal cell the gateway claimed
// and Close releases, so inbound SAs are registered and removed through the
// gateway (AddInbound, RekeyInbound, RemoveInbound, Adopt), never through
// the SAD's Add or Delete.
func (g *Gateway) SAD() *SAD { return g.sad }

// SPD exposes the outbound policy database.
func (g *Gateway) SPD() *SPD { return g.spd }

// Journal exposes the shared durable medium.
func (g *Gateway) Journal() *store.Lanes { return g.cfg.Journal }

// Degraded returns the quarantined commit-lane indices of the gateway's
// medium — lanes whose journal an I/O failure poisoned — in lane order, or
// nil while fully healthy. SAs hashed to a quarantined lane stall at their
// durable horizon (outbound Seal returns core.ErrSaveLag, inbound traffic
// beyond the horizon is discarded with core.VerdictHorizon) — the
// paper-correct behaviour when SAVE cannot complete — while every other
// lane's SAs run at full speed. After the lane is repaired
// (store.Lanes.RepairLane, which cluster.Standby.RepairSourceLane calls with
// its follower medium as donor), WakeAll resumes the stalled SAs through the
// usual FETCH + leap + SAVE.
func (g *Gateway) Degraded() []int { return g.cfg.Journal.Quarantined() }

// ResetAll crashes every SA's endpoint, as a machine reset would: all
// volatile counters and windows are lost; the journal survives.
func (g *Gateway) ResetAll() {
	snap := g.snapshot()
	for _, sa := range snap.outbound {
		sa.Sender().Reset()
	}
	for _, sa := range snap.inbound {
		sa.Receiver().Reset()
	}
	g.lifecycle("reset", len(snap.outbound)+len(snap.inbound))
}

// lifecycle reports a population-wide transition to OnLifecycle, if set.
func (g *Gateway) lifecycle(kind string, sas int) {
	if g.cfg.OnLifecycle != nil {
		g.cfg.OnLifecycle(kind, sas)
	}
}

// WakeAll runs the paper's wake-up (FETCH + leap + SAVE) on every SA that is
// down — after ResetAll, Adopt or a re-add over a prior life — lane by
// commit lane (wakeLane) on at most the pool's worker count of goroutines,
// and returns the first failure once every wake has settled: one fsync a
// lane with SAs, one pass over an inbound SA's ring. WakeAlls run one after
// another. A fenced or poisoned lane fails its SAs' wakes with its error. An
// SA removed under the wake is skipped or not reported; another SA Reset
// under it fails with core.ErrDown, and one a caller woke directly (Wake),
// with core.ErrWaking. OnLifecycle sees "wake-failed" with the number that
// failed, or "wake-done"; it runs under the wake's mutex and must not call
// WakeAll.
func (g *Gateway) WakeAll() error {
	g.wakeMu.Lock()
	defer g.wakeMu.Unlock()
	since := g.retired.Load() // a removal counted by now is not in snap
	snap := g.snapshot()
	n := len(snap.outbound) + len(snap.inbound)
	g.lifecycle("wake", n)
	lanes := make([][]wakeItem, g.cfg.Journal.LaneCount())
	add := func(it wakeItem) {
		l := it.ep.Store().(*store.Cell).Lane()
		if lanes[l] == nil { // sized for an even spread, and a quarter more
			lanes[l] = make([]wakeItem, 0, n/len(lanes)*5/4+1)
		}
		lanes[l] = append(lanes[l], it)
	}
	for _, sa := range snap.outbound {
		add(wakeItem{ep: sa.seq, c: outboundCell(sa.spi)})
	}
	for _, sa := range snap.inbound {
		add(wakeItem{ep: sa.replay, c: inboundCell(sa.spi)})
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		mu     sync.Mutex
		failed int
		first  error // both under mu: every lane's worker settles
	)
	settle := func(it wakeItem, err error) {
		if err != nil && !(errors.Is(err, core.ErrDown) && g.removed(&it)) {
			mu.Lock()
			if failed++; first == nil {
				first = fmt.Errorf("ipsec: gateway wake %v: %w", it.c, err)
			}
			mu.Unlock()
		}
	}
	for range min(g.pool.Workers(), len(lanes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(lanes)); i = next.Add(1) - 1 {
				g.wakeLane(lanes[i], since, settle)
			}
		}()
	}
	wg.Wait()
	if failed > 0 {
		g.lifecycle("wake-failed", failed)
		return first
	}
	g.lifecycle("wake-done", n)
	return nil
}

// wakeItem is one SA of a lane's wake: its sender or receiver, its cell,
// and the post-wake record it waits for.
type wakeItem struct {
	ep interface {
		BeginWake() (core.PostWake, bool, error)
		FinishWake(core.PostWake, error) error
		Store() store.Store
	}
	c cellID
	w core.PostWake
}

// wakeLane begins every wake of a lane (core's BeginWake stages the leaped
// record), waits once, for the last record, and finishes every SA with that
// result. An SA that is up settles at once, as does one BeginWake refuses;
// one removed after WakeAll's count since is skipped. Outcomes go to settle.
func (g *Gateway) wakeLane(items []wakeItem, since uint64, settle func(wakeItem, error)) {
	owed := items[:0] // filled in place, behind the loop
	g.retireMu.RLock()
	stale := g.retired.Load() != since // fixed while the read hold lasts
	for _, it := range items {
		if stale && g.removed(&it) {
			continue
		}
		w, ok, err := it.ep.BeginWake()
		if !ok {
			settle(it, err)
			continue
		}
		it.w = w
		owed = append(owed, it)
	}
	g.retireMu.RUnlock()
	var err error
	if len(owed) > 0 {
		last := owed[len(owed)-1]
		err = last.ep.Store().(store.Stager).WaitDurable(last.w.Seq)
	}
	for i := range owed {
		settle(owed[i], owed[i].ep.FinishWake(owed[i].w, err))
	}
}

// removed reports whether the SA of it has left the registry.
func (g *Gateway) removed(it *wakeItem) bool {
	if it.c>>32 == 0 {
		sa := g.findOutbound(uint32(it.c))
		return sa == nil || sa.seq != it.ep
	}
	sa, _ := g.sad.Lookup(uint32(it.c))
	return sa == nil || sa.replay != it.ep
}

type gatewaySnapshot struct {
	outbound []*OutboundSA
	inbound  []*InboundSA
}

// snapshot copies the registered SA population: outbound from the
// gateway's own list, in registration order and without its holes, inbound
// from the SAD.
func (g *Gateway) snapshot() gatewaySnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.snapshotLocked()
}

func (g *Gateway) snapshotLocked() gatewaySnapshot {
	snap := gatewaySnapshot{outbound: make([]*OutboundSA, 0, len(g.outbound)-g.holes),
		inbound: make([]*InboundSA, 0, g.sad.Len())}
	for _, sa := range g.outbound {
		if sa != nil {
			snap.outbound = append(snap.outbound, sa)
		}
	}
	g.sad.Range(func(sa *InboundSA) bool {
		snap.inbound = append(snap.inbound, sa)
		return true
	})
	return snap
}

// retireCell stops a removed SA's endpoint (reset) and disposes of its
// journal cell: with tombstone, permanently. The caller unregistered the SA
// under g.mu while the gateway was open, so the claim is the caller's to
// release (after Close the cell may be a successor gateway's). Under
// retireMu, Reset returns once every save the old life accepted is queued on
// saver, its pool handle; one Flush lands them, then a group-committed
// tombstone erases the key and the claim is released. A save drained after
// the tombstone, or a wake that FETCHed before it and staged after it, would
// resurrect the retired counter. A tombstone error is returned for
// observability; the claim is released regardless.
func (g *Gateway) retireCell(c cellID, reset func(), saver core.BackgroundSaver, tombstone bool) error {
	g.retireMu.Lock()
	defer g.retireMu.Unlock()
	g.retired.Add(1)
	reset()
	key := c.key()
	var err error
	if tombstone {
		saver.(*store.PoolSaver).Flush()
		err = g.cfg.Journal.Delete(key)
	}
	g.cfg.Journal.ReleaseCell(key)
	return err
}

// RemoveInbound tears down the inbound SA for spi: it leaves the SAD, its
// window edge is erased from the journal (a group-committed tombstone) and
// its claim released. Reports whether the SA existed. A later SA on the same
// SPI starts a fresh life: its numbers restart at 1, below the old edge.
func (g *Gateway) RemoveInbound(spi uint32) bool { return g.removeInbound(spi, true) }

// removeInbound drops the inbound SA for spi from the SAD, drains it and
// retires its cell (retireCell); without tombstone the cell is only released:
// the mirror's removal of an SA whose tombstone arrives through replication.
func (g *Gateway) removeInbound(spi uint32, tombstone bool) bool {
	g.mu.Lock()
	sa, ok := g.sad.Lookup(spi)
	if g.closed || !ok {
		g.mu.Unlock()
		return false
	}
	g.sad.Delete(spi)
	g.mu.Unlock()
	sa.BeginDrain()
	g.retireCell(inboundCell(spi), sa.Receiver().Reset, sa.Receiver().Saver(), tombstone) //nolint:errcheck // claim released either way; tombstone errors are journal-poisoning events the next save surfaces
	return true
}

// RemoveOutbound tears down the outbound SA for spi: its SPD entries go, it
// drains (BeginDrain), its counter is erased from the journal and its claim
// released. Reports whether the SA existed; as with RemoveInbound, the SPI
// re-added starts a fresh life. After a rekey cutover the SPD no longer
// references the old SA, so only its counter and claim are retired.
func (g *Gateway) RemoveOutbound(spi uint32) bool { return g.removeOutbound(spi, true) }

// removeOutbound is removeInbound's outbound counterpart; it also removes
// the SA's SPD entries.
func (g *Gateway) removeOutbound(spi uint32, tombstone bool) bool {
	g.mu.Lock()
	sa := g.outSPI[spi]
	if g.closed || sa == nil {
		g.mu.Unlock()
		return false
	}
	g.unregisterOutboundLocked(sa)
	g.spd.Remove(sa)
	g.mu.Unlock()
	sa.BeginDrain()
	g.retireCell(outboundCell(spi), sa.Sender().Reset, sa.Sender().Saver(), tombstone) //nolint:errcheck // see removeInbound
	return true
}

// Close drains the pool if the gateway created it and releases the journal
// cell claims of the registered SAs, so a successor gateway can be built
// over the same journal. An SA unregistered before Close is its remover's
// to release; one built but not yet registered, its builder's; after
// Close, RemoveInbound, RemoveOutbound and RevertOutbound report false and
// release nothing. The journal and any caller-provided pool belong to the
// caller (both may be shared with other gateways): close the pool first,
// then the gateway, then the journal. SAs must not be used afterwards.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	owned := g.snapshotLocked()
	g.mu.Unlock()
	if g.ownPool {
		g.pool.Close()
	}
	for _, sa := range owned.outbound {
		g.releaseCell(outboundCell(sa.spi))
	}
	for _, sa := range owned.inbound {
		g.releaseCell(inboundCell(sa.spi))
	}
	return nil
}
