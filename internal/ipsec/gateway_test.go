package ipsec

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
	"antireplay/internal/storefault"
	"antireplay/internal/watchdog"
)

func newInboundT(t *testing.T, spi uint32) *InboundSA {
	t.Helper()
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 5, W: 64, Store: &store.Mem{}})
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	sa, err := NewInboundSA(spi, testKeys(), rcv, false, Lifetime{}, nil)
	if err != nil {
		t.Fatalf("NewInboundSA: %v", err)
	}
	return sa
}

// TestSADConcurrentStress hammers the SAD with concurrent Add, Delete,
// Lookup, Open, Len, and Range. Run under -race this is the regression test
// for its lock-free reads.
func TestSADConcurrentStress(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	d := NewSAD()
	const spis = 128

	// Pre-seal one valid packet per SPI so Open exercises full routing.
	wires := make([][]byte, spis)
	for i := range wires {
		spi := uint32(i + 1)
		snd, err := core.NewSender(core.SenderConfig{K: 5, Store: &store.Mem{}})
		if err != nil {
			t.Fatalf("NewSender: %v", err)
		}
		out, err := NewOutboundSA(spi, testKeys(), snd, false, Lifetime{}, nil)
		if err != nil {
			t.Fatalf("NewOutboundSA: %v", err)
		}
		w, err := out.Seal([]byte("stress"))
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		wires[i] = w
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				spi := uint32(rng.Intn(spis) + 1)
				switch rng.Intn(5) {
				case 0:
					d.Add(newInboundT(t, spi))
				case 1:
					d.Delete(spi)
				case 2:
					d.Lookup(spi)
				case 3:
					// Concurrent deletes make ErrUnknownSPI legitimate;
					// only data races (caught by -race) and panics fail.
					if sa, ok := d.Lookup(spi); ok {
						_, _, _ = sa.Open(wires[spi-1])
					}
				case 4:
					if n := d.Len(); n < 0 || n > spis {
						t.Errorf("Len = %d, want 0..%d", n, spis)
					}
					d.Range(func(*InboundSA) bool { return true })
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSPDExactFastPath: with only host-route selectors Lookup uses the hash
// map; one prefix selector drops back to the ordered scan, and first-match
// order is preserved either way.
func TestSPDExactFastPath(t *testing.T) {
	newOut := func(spi uint32) *OutboundSA {
		snd, err := core.NewSender(core.SenderConfig{K: 5, Store: &store.Mem{}})
		if err != nil {
			t.Fatalf("NewSender: %v", err)
		}
		sa, err := NewOutboundSA(spi, testKeys(), snd, false, Lifetime{}, nil)
		if err != nil {
			t.Fatalf("NewOutboundSA: %v", err)
		}
		return sa
	}
	host1, host2 := gwSelector(1), gwSelector(2)
	src1, dst1 := gwAddr(1)

	p := NewSPD()
	sa1, sa2 := newOut(1), newOut(2)
	p.Add(host1, sa1)
	p.Add(host2, sa2)
	p.Add(host1, newOut(3)) // duplicate must not shadow the first match
	if got, ok := p.Lookup(src1, dst1); !ok || got != sa1 {
		t.Errorf("exact Lookup = (%p, %v), want first-added sa1", got, ok)
	}
	if _, ok := p.Lookup(dst1, src1); ok {
		t.Error("reversed pair matched, want miss")
	}

	// The zero value stays usable (public API exposes the type).
	var zero SPD
	zero.Add(host1, sa1)
	if got, ok := zero.Lookup(src1, dst1); !ok || got != sa1 {
		t.Errorf("zero-value SPD Lookup = (%p, %v), want sa1", got, ok)
	}

	// A broad prefix added first must win over a later host entry.
	p2 := NewSPD()
	broad := newOut(9)
	p2.Add(Selector{
		Src: netip.MustParsePrefix("10.0.0.0/8"),
		Dst: netip.MustParsePrefix("10.1.0.0/16"),
	}, broad)
	p2.Add(host1, newOut(10))
	if got, ok := p2.Lookup(src1, dst1); !ok || got != broad {
		t.Errorf("prefix-first Lookup = (%p, %v), want the broad first match", got, ok)
	}
}

func TestSADRange(t *testing.T) {
	d := NewSAD()
	for spi := uint32(1); spi <= 10; spi++ {
		d.Add(newInboundT(t, spi))
	}
	seen := make(map[uint32]bool)
	d.Range(func(sa *InboundSA) bool {
		seen[sa.SPI()] = true
		return true
	})
	if len(seen) != 10 {
		t.Errorf("Range visited %d SAs, want 10", len(seen))
	}
	visited := 0
	d.Range(func(*InboundSA) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Errorf("Range with early stop visited %d, want 1", visited)
	}
}

func testGateway(t *testing.T, opts ...store.LanesOption) (*Gateway, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gw.journal")
	j, err := store.OpenLanes(path, append([]store.LanesOption{store.LanesCount(1)}, opts...)...)
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	// Cleanups run after the test body's deferred g.Close has drained the
	// owned pool.
	t.Cleanup(func() { j.Close() })
	g, err := NewGateway(GatewayConfig{Journal: j, K: 5, W: 64})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	return g, path
}

func gwAddr(i int) (src, dst netip.Addr) {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
}

func gwSelector(i int) Selector {
	src, dst := gwAddr(i)
	return Selector{
		Src: netip.PrefixFrom(src, 32),
		Dst: netip.PrefixFrom(dst, 32),
	}
}

// gwSeal seals with retry on ErrSaveLag: the strict horizon's bounded
// backpressure while a queued background save catches up.
func gwSeal(t *testing.T, g *Gateway, src, dst netip.Addr, payload []byte) []byte {
	t.Helper()
	for attempt := 0; attempt < 10000; attempt++ {
		wire, err := g.Seal(src, dst, payload)
		if err == nil {
			return wire
		}
		if !errors.Is(err, core.ErrSaveLag) {
			t.Fatalf("Seal: %v", err)
		}
		time.Sleep(20 * time.Microsecond)
	}
	t.Fatal("Seal: ErrSaveLag never cleared")
	return nil
}

// gwOpen opens with retry on VerdictHorizon (the receiver-side analogue; a
// horizon discard does not mark the window, so a retry is a retransmission).
func gwOpen(t *testing.T, g *Gateway, wire []byte) ([]byte, core.Verdict) {
	t.Helper()
	for attempt := 0; attempt < 10000; attempt++ {
		payload, verdict, err := g.Open(wire)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if verdict != core.VerdictHorizon {
			return payload, verdict
		}
		time.Sleep(20 * time.Microsecond)
	}
	t.Fatal("Open: VerdictHorizon never cleared")
	return nil, 0
}

func TestGatewaySealOpenAcrossSAs(t *testing.T) {
	g, _ := testGateway(t)
	defer g.Close()
	const n = 16
	for i := 0; i < n; i++ {
		spi := uint32(0x1000 + i)
		if _, err := g.AddOutbound(spi, testKeys(), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := g.AddInbound(spi, testKeys()); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	if g.SAD().Len() != n || g.SPD().Len() != n {
		t.Fatalf("SAD/SPD len = %d/%d, want %d/%d", g.SAD().Len(), g.SPD().Len(), n, n)
	}
	// A live SPI must not be registrable twice in either direction: two
	// endpoints over one journal cell would collide after a wake.
	if _, err := g.AddOutbound(0x1000, testKeys(), gwSelector(99)); !errors.Is(err, ErrDuplicateSPI) {
		t.Errorf("duplicate AddOutbound = %v, want ErrDuplicateSPI", err)
	}
	if _, err := g.AddInbound(0x1000, testKeys()); !errors.Is(err, ErrDuplicateSPI) {
		t.Errorf("duplicate AddInbound = %v, want ErrDuplicateSPI", err)
	}
	for i := 0; i < n; i++ {
		src, dst := gwAddr(i)
		msg := []byte(fmt.Sprintf("tunnel-%d", i))
		wire := gwSeal(t, g, src, dst, msg)
		got, verdict := gwOpen(t, g, wire)
		if !verdict.Delivered() || string(got) != string(msg) {
			t.Fatalf("Open %d = (%q, %v), want delivered %q", i, got, verdict, msg)
		}
	}
}

// sealLog records every (SPI, seq64) a test seals, across resets and
// process lives. Under GCM the nonce is (salt XOR SPI) || seq64, so with
// the one key set every SA here shares, (SPI, seq64) names the nonce, and
// sealing one number twice is not just a replay the window would refuse:
// two ciphertexts under one (key, nonce) give away the authentication key,
// and with it forgeries. The gateways here run without ESN, so the wire's
// 32 sequence bits are the whole seq64.
type sealLog struct {
	mu   sync.Mutex
	seen map[uint64]bool // SPI<<32 | seq64
}

func (l *sealLog) add(wire []byte) error {
	spi, _ := ParseSPI(wire)
	seq, _ := ParseSeqLo(wire)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[uint64]bool)
	}
	key := uint64(spi)<<32 | uint64(seq)
	if l.seen[key] {
		return fmt.Errorf("SPI %#x sealed seq %d twice: GCM nonce reuse", spi, seq)
	}
	l.seen[key] = true
	return nil
}

// sealConcurrently seals per packets from each of m goroutines, spread
// round-robin over gateway SAs 0..n-1, and adds every wire to sealed. Once
// each goroutine has sealed one packet it runs during on the calling
// goroutine while they go on, so a ResetAll/WakeAll lands among their
// seals: a seal refused by backpressure, or by an SA that is down or
// waking, is retried. It returns each SA's wires.
func sealConcurrently(t *testing.T, g *Gateway, n, m, per int, sealed *sealLog, during func()) [][][]byte {
	t.Helper()
	wires := make([][][]byte, n)
	var mu sync.Mutex
	var wg, first sync.WaitGroup
	deadline := time.Now().Add(5 * time.Second)
	for s := 0; s < m; s++ {
		wg.Add(1)
		first.Add(1)
		go func(s int) {
			defer wg.Done()
			var once sync.Once
			started := func() { once.Do(first.Done) }
			defer started() // a sealer that gives up must not hold during back
			for p := 0; p < per; {
				i := (s + p) % n
				src, dst := gwAddr(i)
				wire, err := g.Seal(src, dst, []byte("traffic"))
				switch {
				case err == nil:
					if err := sealed.add(wire); err != nil {
						t.Error(err)
					}
					mu.Lock()
					wires[i] = append(wires[i], wire)
					mu.Unlock()
					started()
					p++
				case errors.Is(err, core.ErrSaveLag) || errors.Is(err, core.ErrDown) || errors.Is(err, core.ErrWaking):
					if time.Now().After(deadline) {
						t.Errorf("sealer %d: %v never cleared", s, err)
						return
					}
					time.Sleep(20 * time.Microsecond)
				default:
					t.Errorf("sealer %d: Seal: %v", s, err)
					return
				}
			}
		}(s)
	}
	if during != nil {
		first.Wait()
		during()
	}
	wg.Wait()
	return wires
}

// TestGatewayResetRecovery is the paper's multi-SA reset scenario on the
// shared journal: four sealers run while ResetAll/WakeAll rounds land
// among their seals, and across every round no (SPI, seq64) is sealed
// twice; after each wake, replayed packets are rejected by every SA and
// fresh traffic flows.
func TestGatewayResetRecovery(t *testing.T) {
	g, _ := testGateway(t)
	defer g.Close()
	const n, sealers, rounds = 8, 4, 3
	outs := make([]*OutboundSA, n)
	ins := make([]*InboundSA, n)
	for i := 0; i < n; i++ {
		spi := uint32(0x2000 + i)
		out, err := g.AddOutbound(spi, testKeys(), gwSelector(i))
		if err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		outs[i] = out
		in, err := g.AddInbound(spi, testKeys())
		if err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
		ins[i] = in
	}

	var sealed sealLog
	for round := 0; round < rounds; round++ {
		pre := sealConcurrently(t, g, n, sealers, 20, &sealed, nil)
		for i := range pre {
			for _, wire := range pre[i] {
				if _, verdict := gwOpen(t, g, wire); !verdict.Delivered() {
					t.Fatalf("round %d: Open pre-reset: %v", round, verdict)
				}
			}
		}

		// Let each sender's saves overtake its receiver's before the reset.
		// Post-wake the sender leaps to durable_s + leap·K and the receiver
		// sacrifices everything at or below durable_r + leap·K, so fresh
		// traffic flows immediately only when durable_s >= durable_r per SA
		// — not what holds when concurrent sealers stop: a receiver that
		// meets its horizon saves the discarded number itself, which can be
		// above its sender's last save, and the first post-wake seals are
		// then (correctly, per the paper) sacrificed. So a lagging sender
		// seals on, unopened and still logged, until its committed value
		// covers everything its receiver has handed to the saver.
		for i := 0; i < n; i++ {
			src, dst := gwAddr(i)
			snd, rcv := outs[i].Sender(), ins[i].Receiver()
			for a := 0; snd.Committed() < rcv.LastStored(); a++ {
				if a >= 10000 {
					t.Fatalf("SA %d: sender durable %d stuck below receiver durable %d",
						i, snd.Committed(), rcv.LastStored())
				}
				if snd.LastStored() < rcv.LastStored() {
					if err := sealed.add(gwSeal(t, g, src, dst, []byte("top-up"))); err != nil {
						t.Fatal(err)
					}
					continue
				}
				time.Sleep(20 * time.Microsecond)
			}
		}

		sealConcurrently(t, g, n, sealers, 20, &sealed, func() {
			g.ResetAll()
			if _, err := outs[0].Seal([]byte("down")); err == nil {
				t.Error("Seal while down succeeded, want error")
			}
			if err := g.WakeAll(); err != nil {
				t.Errorf("WakeAll: %v", err)
			}
		})
		if t.Failed() {
			t.FailNow()
		}

		for i := 0; i < n; i++ {
			// Replays of pre-reset traffic must be rejected...
			if _, verdict, err := g.Open(pre[i][0]); err != nil || verdict.Delivered() {
				t.Errorf("round %d SA %d: replay after reset = (%v, %v), want discarded", round, i, verdict, err)
			}
			// ...and fresh traffic must flow.
			src, dst := gwAddr(i)
			wire := gwSeal(t, g, src, dst, []byte("post-reset"))
			if err := sealed.add(wire); err != nil {
				t.Error(err)
			}
			if _, verdict := gwOpen(t, g, wire); !verdict.Delivered() {
				t.Errorf("round %d SA %d: fresh post-reset = %v, want delivered", round, i, verdict)
			}
		}
	}
}

// TestGatewayRecoveryFromDisk reboots the whole gateway process: a second
// gateway over the same journal path resumes every SA above the first
// life's numbers, so across a ResetAll/WakeAll in the first life, the
// reopen and concurrent sealers in both, no (SPI, seq64) is sealed twice.
// The first life ends as a crash does, with each SA at its own offset
// from its last SAVE.
func TestGatewayRecoveryFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	j, err := store.OpenLanes(path, store.LanesCount(1))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	g, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	const n, sealers = 8, 4
	for i := 0; i < n; i++ {
		if _, err := g.AddOutbound(uint32(0x3000+i), testKeys(), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
	}
	var sealed sealLog
	sealConcurrently(t, g, n, sealers, 40, &sealed, func() {
		g.ResetAll()
		if err := g.WakeAll(); err != nil {
			t.Errorf("WakeAll: %v", err)
		}
	})
	sealConcurrently(t, g, n, sealers, 40, &sealed, nil)
	for i := 0; i < n; i++ {
		src, dst := gwAddr(i)
		for p := 0; p <= i; p++ {
			if err := sealed.add(gwSeal(t, g, src, dst, []byte("tail"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.ResetAll()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal Close: %v", err)
	}

	j2, err := store.OpenLanes(path, store.LanesCount(1))
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j2.Close()
	g2, err := NewGateway(GatewayConfig{Journal: j2, K: 5})
	if err != nil {
		t.Fatalf("NewGateway 2: %v", err)
	}
	defer g2.Close()
	for i := 0; i < n; i++ {
		// AddOutbound sees the prior life's counter in the journal and
		// resumes through the paper's wake-up on its own; no hand-rolled
		// Reset/Wake needed.
		if _, err := g2.AddOutbound(uint32(0x3000+i), testKeys(), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound 2: %v", err)
		}
	}
	if err := g2.WakeAll(); err != nil {
		t.Fatalf("WakeAll: %v", err)
	}
	sealConcurrently(t, g2, n, sealers, 40, &sealed, nil)
}

// TestGatewayAddAfterClose: registration on a closed gateway must fail
// cleanly (no panic, no stranded journal claim).
func TestGatewayAddAfterClose(t *testing.T) {
	g, _ := testGateway(t)
	j := g.Journal()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := g.AddOutbound(0x1, testKeys(), gwSelector(1)); !errors.Is(err, store.ErrClosed) {
		t.Errorf("AddOutbound after Close = %v, want ErrClosed", err)
	}
	if _, err := g.AddInbound(0x1, testKeys()); !errors.Is(err, store.ErrClosed) {
		t.Errorf("AddInbound after Close = %v, want ErrClosed", err)
	}
	// The failed Adds left no claim behind: a successor gateway owns the SPI.
	g2, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	defer g2.Close()
	if _, err := g2.AddOutbound(0x1, testKeys(), gwSelector(1)); err != nil {
		t.Errorf("successor AddOutbound = %v, want nil", err)
	}
}

// TestGatewayCloseReleasesExactlyItsClaims: the journal cells a gateway
// owns are those of its registered SAs. Removals and reverts race Close; a
// successor gateway over the same journal, built as Close returns, then
// claims every SPI the first one ever held (a claim the remover still held
// is waited out, a leaked one never frees), and once it has, a third
// gateway finds every one of them taken — no straggler of the first
// released a claim of the successor's.
func TestGatewayCloseReleasesExactlyItsClaims(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const n = 24
	g, _ := testGateway(t)
	j := g.Journal()
	for i := 0; i < n; i++ {
		if _, err := g.AddOutbound(uint32(0x100+i), testKeys(), gwSelector(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddInbound(uint32(0x100+i), testKeys()); err != nil {
			t.Fatal(err)
		}
		if _, err := g.RekeyOutbound(uint32(0x100+i), uint32(0x200+i), testKeys2()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch spi := uint32(0x100 + i); i % 3 {
			case 0:
				g.RemoveInbound(spi)
			case 1:
				g.RemoveOutbound(spi)
			default:
				g.RevertOutbound(spi, spi+0x100)
			}
		}()
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	type cell struct {
		spi     uint32
		inbound bool
	}
	var cells []cell
	for i := 0; i < n; i++ {
		cells = append(cells, cell{uint32(0x100 + i), false}, cell{uint32(0x100 + i), true}, cell{uint32(0x200 + i), false})
	}
	claim := func(gw *Gateway, c cell) error {
		if c.inbound {
			_, err := gw.AddInbound(c.spi, testKeys())
			return err
		}
		_, err := gw.AddOutbound(c.spi, testKeys(), gwSelector(int(c.spi)))
		return err
	}
	g2, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	for _, c := range cells {
		for {
			err := claim(g2, c)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrDuplicateSPI) {
				t.Fatalf("successor claim of %+v: %v", c, err)
			}
			time.Sleep(50 * time.Microsecond) // a remover still holds it
		}
	}
	wg.Wait()
	// Late removals on the closed gateway release nothing either.
	for i := 0; i < n; i++ {
		if g.RemoveInbound(uint32(0x100+i)) || g.RemoveOutbound(uint32(0x100+i)) || g.RevertOutbound(uint32(0x100+i), uint32(0x200+i)) {
			t.Fatalf("removal of %#x on a closed gateway reported success", 0x100+i)
		}
	}
	g3, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer g3.Close()
	for _, c := range cells {
		if err := claim(g3, c); !errors.Is(err, ErrDuplicateSPI) {
			t.Errorf("third gateway's claim of %+v = %v, want ErrDuplicateSPI", c, err)
		}
	}
}

// TestGatewayDuplicateSPIAcrossGateways: the duplicate guard is scoped to
// the journal, not the gateway — two gateways sharing one journal must not
// both own an SPI's cell.
func TestGatewayDuplicateSPIAcrossGateways(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.journal")
	j, err := store.OpenLanes(path, store.LanesCount(1))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer j.Close()
	g1, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatalf("NewGateway 1: %v", err)
	}
	defer g1.Close()
	g2, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatalf("NewGateway 2: %v", err)
	}
	defer g2.Close()

	if _, err := g1.AddOutbound(0x9000, testKeys(), gwSelector(1)); err != nil {
		t.Fatalf("g1 AddOutbound: %v", err)
	}
	if _, err := g2.AddOutbound(0x9000, testKeys(), gwSelector(2)); !errors.Is(err, ErrDuplicateSPI) {
		t.Errorf("g2 duplicate AddOutbound = %v, want ErrDuplicateSPI", err)
	}
	// A disjoint SPI on the shared journal is fine.
	if _, err := g2.AddOutbound(0x9001, testKeys(), gwSelector(2)); err != nil {
		t.Errorf("g2 disjoint AddOutbound = %v, want nil", err)
	}
}

// holdFS is the real filesystem, except that while it is held every Sync
// of a log it opened waits for the release: a wake's commit then stays in
// flight, with everything the wake staged before it.
type holdFS struct {
	storefault.FS
	gate    atomic.Pointer[chan struct{}]
	waiting atomic.Int32 // Syncs waiting on the gate
}

type holdFile struct {
	storefault.File
	fs *holdFS
}

func (h *holdFS) OpenFile(name string, flag int, perm os.FileMode) (storefault.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return holdFile{f, h}, nil
}

func (f holdFile) Sync() error {
	if gate := f.fs.gate.Load(); gate != nil {
		f.fs.waiting.Add(1)
		<-*gate
		f.fs.waiting.Add(-1)
	}
	return f.File.Sync()
}

// hold makes every later Sync wait until release is called.
func (h *holdFS) hold() (release func()) {
	gate := make(chan struct{})
	h.gate.Store(&gate)
	return sync.OnceFunc(func() {
		h.gate.Store(nil)
		close(gate)
	})
}

// TestGatewayWakeAllCommitsPerLane: a wake-up goes lane by lane, so 512 SAs
// over 64 lanes come back up for exactly one commit a lane — not one per
// SA — each resuming from exactly fetched + 2K.
func TestGatewayWakeAllCommitsPerLane(t *testing.T) {
	l, err := store.OpenLanes(t.TempDir(), store.LanesCount(64))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	wakeAllCommits(t, l, 256, resetAll)
}

// TestGatewayWakeAllDefaultMedium: a medium opened without LanesCount has
// one lane per worker of a default pool, and a wake of 512 SAs over it
// costs one commit a lane.
func TestGatewayWakeAllDefaultMedium(t *testing.T) {
	l, err := store.OpenLanes(t.TempDir())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	if lanes := l.LaneCount(); lanes > store.DefaultPoolWorkers {
		t.Errorf("a default medium has %d lanes, want at most one a pool worker (%d)", lanes, store.DefaultPoolWorkers)
	}
	wakeAllCommits(t, l, 256, resetAll)
}

// TestGatewayWakeAllCommitsPerLaneAtScale: 40,000 SAs over the default
// medium, nothing held, still come back up for one commit a lane. A wake
// whose post-wake SAVEs reach the pool one by one pays a commit each time
// a worker starts a round before the last SAVE is queued: three or four a
// lane here.
func TestGatewayWakeAllCommitsPerLaneAtScale(t *testing.T) {
	l, err := store.OpenLanes(t.TempDir())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	wakeAllCommits(t, l, 20_000, resetAll)
}

// TestGatewayWakeAllColdStartAtScale: a cold start of 40,000 SAs over the
// default medium — every SA re-added over the cell its prior life used,
// then one WakeAll — pays no sync during the re-adds and one commit a lane
// with SAs for the wake. Re-adds that woke each SA through its own pool
// handle paid commits while they ran and left WakeAll nothing to batch.
func TestGatewayWakeAllColdStartAtScale(t *testing.T) {
	l, err := store.OpenLanes(t.TempDir())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	wakeAllCommits(t, l, 20_000, coldStart)
}

// restart is how wakeAllCommits takes its SAs down: ResetAll, or a cold
// start that closes the gateway and re-adds every SA on a new one over the
// same medium.
type restart int

const (
	resetAll restart = iota
	coldStart
)

// wakeAllCommits installs pairs SA pairs on a gateway over l, resets them
// all and wakes them. Each lane with SAs must pay exactly one commit for
// the wake — a compaction is that commit, for two syncs, the snapshot's and
// its directory's — and every other lane none. Every SA must come back up
// at fetched + 2K. A cold start's re-adds must pay no sync and leave every
// SA down.
func wakeAllCommits(t *testing.T, l *store.Lanes, pairs int, how restart) {
	t.Helper()
	watchdog.Arm(t, 60*time.Second)
	const k = 25
	newGateway := func() *Gateway {
		g, err := NewGateway(GatewayConfig{Journal: l, K: k, W: 64})
		if err != nil {
			t.Fatalf("NewGateway: %v", err)
		}
		return g
	}
	g := newGateway()
	defer func() { g.Close() }()

	// Four installers at once; every SA's birth is only staged, and the
	// wake below commits it with the post-wake record.
	install := func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < pairs; i += 4 {
					spi := uint32(0x7000 + i)
					if _, err := g.AddOutbound(spi, testKeys(), gwSelector(i)); err != nil {
						t.Errorf("AddOutbound: %v", err)
					}
					if _, err := g.AddInbound(spi, testKeys()); err != nil {
						t.Errorf("AddInbound: %v", err)
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	install()
	fetched := func(key string) uint64 {
		v, ok, err := l.Cell(key).Fetch()
		if err != nil || !ok {
			t.Fatalf("Fetch %s = (%d, %v, %v)", key, v, ok, err)
		}
		return v
	}
	busy := make([]bool, l.LaneCount())
	for i := 0; i < pairs; i++ {
		busy[l.Cell(OutboundKey(uint32(0x7000+i))).Lane()] = true
		busy[l.Cell(InboundKey(uint32(0x7000+i))).Lane()] = true
	}

	if how == coldStart {
		g.Close()
		g = newGateway()
		before := l.LaneStats()
		install()
		for i, after := range l.LaneStats() {
			if syncs := after.Syncs - before[i].Syncs; syncs != 0 {
				t.Errorf("lane %d: re-adding SAs over a prior life cost %d syncs, want none: WakeAll wakes them", i, syncs)
			}
		}
		for i := 0; i < pairs; i++ {
			spi := uint32(0x7000 + i)
			out, _ := g.Outbound(spi)
			in, _ := g.SAD().Lookup(spi)
			if so, si := out.Sender().State(), in.Receiver().State(); so != core.StateDown || si != core.StateDown {
				t.Fatalf("pair %#x re-added over a prior life is %v/%v, want down until WakeAll", spi, so, si)
			}
		}
	} else {
		g.ResetAll()
	}
	before := l.LaneStats()
	if err := g.WakeAll(); err != nil {
		t.Fatalf("WakeAll: %v", err)
	}
	for i, after := range l.LaneStats() {
		syncs, compactions := after.Syncs-before[i].Syncs, after.Compactions-before[i].Compactions
		want := uint64(0)
		if busy[i] {
			want = 1 + compactions
		}
		if syncs != want || compactions > 1 {
			t.Errorf("lane %d: waking %d SAs cost %d syncs and %d compactions, want one commit a lane with SAs (%d syncs)",
				i, 2*pairs, syncs, compactions, want)
		}
	}
	for i := 0; i < pairs; i++ {
		spi := uint32(0x7000 + i)
		out, _ := g.Outbound(spi)
		in, _ := g.SAD().Lookup(spi)
		if st := out.Sender().State(); st != core.StateUp {
			t.Errorf("outbound %#x is %v after WakeAll, want up", spi, st)
		}
		if st := in.Receiver().State(); st != core.StateUp {
			t.Errorf("inbound %#x is %v after WakeAll, want up", spi, st)
		}
		// First life: the cells held the initial values 1 and 0.
		if got, durable := out.Sender().Committed(), fetched(OutboundKey(spi)); got != 1+2*k || durable != got {
			t.Errorf("outbound %#x: Committed() = %d, durable %d, want both %d", spi, got, durable, 1+2*k)
		}
		if got, durable := in.Receiver().Committed(), fetched(InboundKey(spi)); got != 2*k || durable != got {
			t.Errorf("inbound %#x: Committed() = %d, durable %d, want both %d", spi, got, durable, 2*k)
		}
	}
}

// wakeAllFixture is a gateway of pairs SA pairs (SPIs 0x7100+i) over a
// one-lane medium that has been ResetAll and whose medium is held, so a
// WakeAll started on it fetches, stages its post-wake records and cannot
// finish until release() is called. The keys named by erased are deleted
// before the hold. held blocks until the wake's commit is waiting on its
// Sync; events records what OnLifecycle saw.
type wakeAllFixture struct {
	g       *Gateway
	release func()
	held    func()
	mu      sync.Mutex
	events  []string
}

func newWakeAllFixture(t *testing.T, pairs int, erased ...string) *wakeAllFixture {
	t.Helper()
	fs := &holdFS{FS: storefault.OS()}
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), "gw.journal"), store.LanesCount(1), store.LanesWithFS(fs))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	f := &wakeAllFixture{}
	f.g, err = NewGateway(GatewayConfig{Journal: j, K: 5, W: 64,
		OnLifecycle: func(kind string, sas int) {
			f.mu.Lock()
			f.events = append(f.events, fmt.Sprintf("%s=%d", kind, sas))
			f.mu.Unlock()
		}})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	for i := 0; i < pairs; i++ {
		if _, err := f.g.AddOutbound(uint32(0x7100+i), testKeys(), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := f.g.AddInbound(uint32(0x7100+i), testKeys()); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	f.g.ResetAll()
	for _, key := range erased {
		if err := j.Delete(key); err != nil {
			t.Fatalf("Delete %s: %v", key, err)
		}
	}
	f.release = fs.hold()
	t.Cleanup(func() { f.release(); f.g.Close() })
	f.held = func() {
		for fs.waiting.Load() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return f
}

// wantEvents checks the lifecycle events seen since the fixture's ResetAll.
func (f *wakeAllFixture) wantEvents(t *testing.T, want ...string) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if got := f.events[1:]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lifecycle events after the reset = %v, want %v", got, want)
	}
}

// TestGatewayWakeAllResetDuringWake is the paper's reset-during-wake case at
// gateway level: an SA Reset while WakeAll waits for it is down with no wake
// error and still registered. WakeAll used to poll it forever; it now
// returns an error wrapping core.ErrDown that names the SPI, having waited
// for every other wake — and an SA removed while waking is still skipped.
func TestGatewayWakeAllResetDuringWake(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const pairs = 8
	f := newWakeAllFixture(t, pairs)
	woken := make(chan error, 1)
	go func() { woken <- f.g.WakeAll() }()
	f.held()

	torn, _ := f.g.SAD().Lookup(0x7103)
	torn.Receiver().Reset()
	gone, _ := f.g.Outbound(0x7105)
	removed := make(chan bool, 1)
	go func() { removed <- f.g.RemoveOutbound(0x7105) }() // its tombstone commits after the held one: returns after release
	for gone.Sender().State() != core.StateDown {
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case err := <-woken:
		t.Fatalf("WakeAll returned %v with %d wakes still in flight", err, 2*pairs-2)
	case <-time.After(20 * time.Millisecond):
	}
	f.release()

	err := <-woken
	if !errors.Is(err, core.ErrDown) || !strings.Contains(fmt.Sprint(err), "inbound 0x7103") {
		t.Fatalf("WakeAll = %v, want an error wrapping core.ErrDown that names inbound 0x7103", err)
	}
	if !<-removed {
		t.Error("RemoveOutbound(0x7105) = false")
	}
	f.wantEvents(t, fmt.Sprintf("wake=%d", 2*pairs), "wake-failed=1")
	for i := 0; i < pairs; i++ {
		spi := uint32(0x7100 + i)
		if out, ok := f.g.Outbound(spi); ok && out.Sender().State() != core.StateUp {
			t.Errorf("outbound %#x is %v after WakeAll, want up", spi, out.Sender().State())
		}
		if in, _ := f.g.SAD().Lookup(spi); in != torn && in.Receiver().State() != core.StateUp {
			t.Errorf("inbound %#x is %v after WakeAll, want up", spi, in.Receiver().State())
		}
	}
	// The torn SA wakes like any other on the next pass.
	if err := f.g.WakeAll(); err != nil || torn.Receiver().State() != core.StateUp {
		t.Errorf("second WakeAll = %v, torn SA %v; want nil and up", err, torn.Receiver().State())
	}
}

// TestGatewayWakeAllRemoveBeforeLaneBegins: SAs removed after WakeAll has
// taken its snapshot but before their lane begins — here from the "wake"
// lifecycle event — are not woken. WakeAll returns nil, a removed key stays
// erased, and an SPI re-added over one keeps its fresh life's birth. The
// stale wake used to FETCH after the tombstone and fail, or FETCH the new
// life and stage its leap into the new SA's cell; with the tombstone
// between that FETCH and the stage, it would have revived the retired one.
func TestGatewayWakeAllRemoveBeforeLaneBegins(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const pairs, k = 4, 5
	j, err := store.OpenLanes(t.TempDir(), store.LanesCount(1))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer j.Close()
	var g *Gateway
	g, err = NewGateway(GatewayConfig{Journal: j, K: k, W: 64, OnLifecycle: func(kind string, _ int) {
		if kind != "wake" {
			return
		}
		// 0x7300 leaves; 0x7301 leaves and comes back as a fresh life.
		for _, spi := range []uint32{0x7300, 0x7301} {
			if !g.RemoveOutbound(spi) || !g.RemoveInbound(spi) {
				t.Errorf("removing pair %#x under the wake's snapshot failed", spi)
			}
		}
		if _, err := g.AddOutbound(0x7301, testKeys(), gwSelector(1)); err != nil {
			t.Errorf("re-adding outbound 0x7301: %v", err)
		}
		if _, err := g.AddInbound(0x7301, testKeys()); err != nil {
			t.Errorf("re-adding inbound 0x7301: %v", err)
		}
	}})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	defer g.Close()
	for i := 0; i < pairs; i++ {
		if _, err := g.AddOutbound(uint32(0x7300+i), testKeys(), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := g.AddInbound(uint32(0x7300+i), testKeys()); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	g.ResetAll()
	if err := g.WakeAll(); err != nil {
		t.Fatalf("WakeAll: %v", err)
	}

	vals := j.Values()
	for _, key := range []string{OutboundKey(0x7300), InboundKey(0x7300)} {
		if v, ok := vals[key]; ok {
			t.Errorf("removed key %s holds %d after WakeAll, want erased", key, v)
		}
	}
	if v, ok := vals[OutboundKey(0x7301)]; !ok || v != 1 {
		t.Errorf("re-added outbound 0x7301's cell holds %d (live %v), want its fresh birth 1", v, ok)
	}
	if v, ok := vals[InboundKey(0x7301)]; !ok || v != 0 {
		t.Errorf("re-added inbound 0x7301's cell holds %d (live %v), want its fresh birth 0", v, ok)
	}
	for i := 1; i < pairs; i++ {
		spi := uint32(0x7300 + i)
		out, _ := g.Outbound(spi)
		in, _ := g.SAD().Lookup(spi)
		if st := out.Sender().State(); st != core.StateUp || (spi != 0x7301 && out.Sender().Committed() != 1+2*k) {
			t.Errorf("outbound %#x is %v at %d after WakeAll, want up (at %d unless re-added)", spi, st, out.Sender().Committed(), 1+2*k)
		}
		if st := in.Receiver().State(); st != core.StateUp || (spi != 0x7301 && in.Receiver().Committed() != 2*k) {
			t.Errorf("inbound %#x is %v at %d after WakeAll, want up (at %d unless re-added)", spi, st, in.Receiver().Committed(), 2*k)
		}
	}
}

// TestGatewayWakeAllWaitsForAllOnFailure: two SAs whose FETCH finds nothing
// fail at once, while every other post-wake SAVE is still queued. WakeAll
// used to return at the first of them, report sas=1 and leave the rest in
// flight; it now returns only when every wake it issued has settled, with
// the first error, and reports both failures.
func TestGatewayWakeAllWaitsForAllOnFailure(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const pairs = 8
	f := newWakeAllFixture(t, pairs, OutboundKey(0x7100), InboundKey(0x7106))
	woken := make(chan error, 1)
	go func() { woken <- f.g.WakeAll() }()
	f.held()
	select {
	case err := <-woken:
		t.Fatalf("WakeAll returned %v with %d wakes still in flight", err, 2*pairs-2)
	case <-time.After(20 * time.Millisecond):
	}
	f.release()

	err := <-woken
	if !errors.Is(err, core.ErrNoSavedState) || !strings.Contains(fmt.Sprint(err), "outbound 0x7100") {
		t.Fatalf("WakeAll = %v, want the first failure: core.ErrNoSavedState on outbound 0x7100", err)
	}
	f.wantEvents(t, fmt.Sprintf("wake=%d", 2*pairs), "wake-failed=2")
	want := func(failed bool) core.State {
		if failed {
			return core.StateDown
		}
		return core.StateUp
	}
	for i := 0; i < pairs; i++ {
		spi := uint32(0x7100 + i)
		out, _ := f.g.Outbound(spi)
		in, _ := f.g.SAD().Lookup(spi)
		if st := out.Sender().State(); st != want(spi == 0x7100) {
			t.Errorf("outbound %#x is %v when WakeAll returns, want %v", spi, st, want(spi == 0x7100))
		}
		if st := in.Receiver().State(); st != want(spi == 0x7106) {
			t.Errorf("inbound %#x is %v when WakeAll returns, want %v", spi, st, want(spi == 0x7106))
		}
	}
}

// TestGatewayWakeAllColdStart: SAs re-added over cells a prior life used
// are down, and the re-adds pay no sync. WakeAll wakes them in its lane
// batch and returns only once that commit — here held in the lane's fsync —
// is durable, with every SA up at fetched + 2K after exactly one commit.
func TestGatewayWakeAllColdStart(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const pairs, k = 4, 5
	fs := &holdFS{FS: storefault.OS()}
	j, err := store.OpenLanes(t.TempDir(), store.LanesCount(1), store.LanesWithFS(fs))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer j.Close()
	install := func() *Gateway {
		g, err := NewGateway(GatewayConfig{Journal: j, K: k, W: 64})
		if err != nil {
			t.Fatalf("NewGateway: %v", err)
		}
		for i := 0; i < pairs; i++ {
			if _, err := g.AddOutbound(uint32(0x7200+i), testKeys(), gwSelector(i)); err != nil {
				t.Fatalf("AddOutbound: %v", err)
			}
			if _, err := g.AddInbound(uint32(0x7200+i), testKeys()); err != nil {
				t.Fatalf("AddInbound: %v", err)
			}
		}
		return g
	}
	install().Close() // the first life: its births leave every cell used

	syncs := j.Syncs()
	g := install()
	defer g.Close()
	if got := j.Syncs() - syncs; got != 0 {
		t.Errorf("re-adding %d SAs over a prior life cost %d syncs, want none", 2*pairs, got)
	}
	for i := 0; i < pairs; i++ {
		spi := uint32(0x7200 + i)
		out, _ := g.Outbound(spi)
		in, _ := g.SAD().Lookup(spi)
		if so, si := out.Sender().State(), in.Receiver().State(); so != core.StateDown || si != core.StateDown {
			t.Fatalf("pair %#x re-added over a prior life is %v/%v, want down until WakeAll", spi, so, si)
		}
	}

	release := fs.hold()
	defer release()
	before := j.LaneStats()[0]
	woken := make(chan error, 1)
	go func() { woken <- g.WakeAll() }()
	for fs.waiting.Load() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case err := <-woken:
		t.Fatalf("WakeAll returned %v with its commit still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-woken; err != nil {
		t.Fatalf("WakeAll: %v", err)
	}
	after := j.LaneStats()[0]
	if syncs, compactions := after.Syncs-before.Syncs, after.Compactions-before.Compactions; syncs != 1+compactions {
		t.Errorf("the cold start's wake cost %d syncs (%d compactions), want one commit", syncs, compactions)
	}
	for i := 0; i < pairs; i++ {
		spi := uint32(0x7200 + i)
		out, _ := g.Outbound(spi)
		in, _ := g.SAD().Lookup(spi)
		if st := out.Sender().State(); st != core.StateUp || out.Sender().Committed() != 1+2*k {
			t.Errorf("outbound %#x is %v at %d after WakeAll, want up at %d", spi, st, out.Sender().Committed(), 1+2*k)
		}
		if st := in.Receiver().State(); st != core.StateUp || in.Receiver().Committed() != 2*k {
			t.Errorf("inbound %#x is %v at %d after WakeAll, want up at %d", spi, st, in.Receiver().Committed(), 2*k)
		}
	}
}

// TestGatewayWakeAllConcurrent: two WakeAlls started at once after one
// ResetAll, while the lane's commit is held, both return nil; every SA
// wakes once — its Committed is fetched + 2K, not + 4K — and the two cost
// one commit for the lane between them.
func TestGatewayWakeAllConcurrent(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const pairs, k = 8, 5
	f := newWakeAllFixture(t, pairs)
	j := f.g.Journal()
	before := j.LaneStats()[0]
	woken := make(chan error, 2)
	for range 2 {
		go func() { woken <- f.g.WakeAll() }()
	}
	f.held()
	select {
	case err := <-woken:
		t.Fatalf("a WakeAll returned %v with the lane's commit still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	f.release()
	for range 2 {
		if err := <-woken; err != nil {
			t.Errorf("WakeAll: %v", err)
		}
	}
	after := j.LaneStats()[0]
	if syncs, compactions := after.Syncs-before.Syncs, after.Compactions-before.Compactions; syncs != 1+compactions {
		t.Errorf("two WakeAlls cost %d syncs (%d compactions), want one commit", syncs, compactions)
	}
	n := 2 * pairs
	f.wantEvents(t, fmt.Sprintf("wake=%d", n), fmt.Sprintf("wake-done=%d", n), fmt.Sprintf("wake=%d", n), fmt.Sprintf("wake-done=%d", n))
	for i := 0; i < pairs; i++ {
		spi := uint32(0x7100 + i)
		out, _ := f.g.Outbound(spi)
		in, _ := f.g.SAD().Lookup(spi)
		if st := out.Sender().State(); st != core.StateUp || out.Sender().Committed() != 1+2*k {
			t.Errorf("outbound %#x is %v at %d after two WakeAlls, want up at %d", spi, st, out.Sender().Committed(), 1+2*k)
		}
		if st := in.Receiver().State(); st != core.StateUp || in.Receiver().Committed() != 2*k {
			t.Errorf("inbound %#x is %v at %d after two WakeAlls, want up at %d", spi, st, in.Receiver().Committed(), 2*k)
		}
	}
}

// TestSPDAddNotQuadratic: adding a host route to a large all-host table
// fills one index slot, not a copy of the table, so installing n routes is
// not quadratic — and every route stays reachable, first match first,
// across the index's doublings.
func TestSPDAddNotQuadratic(t *testing.T) {
	const have, add = 1 << 14, 512
	p := NewSPD()
	sas := make([]*OutboundSA, have+add)
	for i := range sas {
		sas[i] = &OutboundSA{}
	}
	for i := 0; i < have; i++ {
		p.Add(gwSelector(i), sas[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := have; i < have+add; i++ {
		p.Add(gwSelector(i), sas[i])
	}
	runtime.ReadMemStats(&after)
	// Copying the whole index — 16k routes of ~60 bytes — on every Add would
	// allocate about a megabyte each time.
	if perAdd := (after.TotalAlloc - before.TotalAlloc) / add; perAdd > 128<<10 {
		t.Errorf("one Add into %d host routes allocated %d bytes on average, want far less than the table", have, perAdd)
	}
	for i := 0; i < have+add; i += 7 {
		p.Add(gwSelector(i), &OutboundSA{}) // duplicates must not shadow, wherever the first one lives
	}
	for i := range sas {
		if got, ok := p.Lookup(gwAddr(i)); !ok || got != sas[i] {
			t.Fatalf("Lookup of route %d = (%p, %v), want the first SA added for it", i, got, ok)
		}
	}
	if v := p.view(); v.index.used != have+add {
		t.Errorf("index holds %d routes, want %d", v.index.used, have+add)
	}
}
