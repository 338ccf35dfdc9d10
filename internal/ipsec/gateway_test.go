package ipsec

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

func newInboundT(t *testing.T, spi uint32) *InboundSA {
	t.Helper()
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 5, W: 64, Store: &store.Mem{}})
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	sa, err := NewInboundSA(spi, testKeys(false), rcv, false, Lifetime{}, nil)
	if err != nil {
		t.Fatalf("NewInboundSA: %v", err)
	}
	return sa
}

// TestSADShardDistribution: sequentially allocated SPIs (the common
// allocator pattern) must spread across stripes, not pile onto a few.
func TestSADShardDistribution(t *testing.T) {
	d := NewSAD()
	counts := make(map[*sadShard]int)
	for spi := uint32(1); spi <= 4096; spi++ {
		counts[d.shard(spi)]++
	}
	if len(counts) != sadShardCount {
		t.Fatalf("%d shards used, want all %d", len(counts), sadShardCount)
	}
	for s, n := range counts {
		if n > 4096/sadShardCount*4 {
			t.Errorf("shard %p holds %d of 4096 SPIs — distribution too skewed", s, n)
		}
	}
}

// TestSADConcurrentStress hammers the sharded SAD with concurrent Add,
// Delete, Lookup, Open, Len, and Range. Run under -race this is the
// regression test for the lock striping.
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
		out, err := NewOutboundSA(spi, testKeys(false), snd, false, Lifetime{}, nil)
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
		sa, err := NewOutboundSA(spi, testKeys(false), snd, false, Lifetime{}, nil)
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
		if _, err := g.AddOutbound(spi, testKeys(true), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := g.AddInbound(spi, testKeys(true)); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	if g.SAD().Len() != n || g.SPD().Len() != n {
		t.Fatalf("SAD/SPD len = %d/%d, want %d/%d", g.SAD().Len(), g.SPD().Len(), n, n)
	}
	// A live SPI must not be registrable twice in either direction: two
	// endpoints over one journal cell would collide after a wake.
	if _, err := g.AddOutbound(0x1000, testKeys(true), gwSelector(99)); !errors.Is(err, ErrDuplicateSPI) {
		t.Errorf("duplicate AddOutbound = %v, want ErrDuplicateSPI", err)
	}
	if _, err := g.AddInbound(0x1000, testKeys(true)); !errors.Is(err, ErrDuplicateSPI) {
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

// TestGatewayResetRecovery is the paper's multi-SA reset scenario on the
// shared journal: after ResetAll/WakeAll, no sequence number is reused
// (fresh seals land above the pre-reset counters) and replayed packets are
// rejected by every SA.
func TestGatewayResetRecovery(t *testing.T) {
	g, _ := testGateway(t)
	defer g.Close()
	const n = 8
	outs := make([]*OutboundSA, n)
	ins := make([]*InboundSA, n)
	for i := 0; i < n; i++ {
		spi := uint32(0x2000 + i)
		out, err := g.AddOutbound(spi, testKeys(false), gwSelector(i))
		if err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		outs[i] = out
		in, err := g.AddInbound(spi, testKeys(false))
		if err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
		ins[i] = in
	}

	replays := make([][]byte, n)
	preSeq := make([]uint64, n)
	for i := 0; i < n; i++ {
		src, dst := gwAddr(i)
		for p := 0; p < 30; p++ {
			wire := gwSeal(t, g, src, dst, []byte("pre-reset"))
			if _, verdict := gwOpen(t, g, wire); !verdict.Delivered() {
				t.Fatalf("Open pre-reset: %v", verdict)
			}
			replays[i] = wire
		}
		preSeq[i] = outs[i].Sender().Seq()
	}

	// Let the async saver pool drain before the reset. Post-wake the sender
	// leaps to durable_s + leap·K and the receiver sacrifices everything at
	// or below durable_r + leap·K, so fresh traffic flows immediately only
	// when durable_s >= durable_r per SA. That holds at quiescence (the
	// sender saves ahead of its seq) but not necessarily mid-flight: under
	// heavy parallel load the receiver's last save can commit while the
	// sender's is still queued, and the first post-wake seal is then
	// (correctly, per the paper) sacrificed — not what this test asserts.
	for i := 0; i < n; i++ {
		for a := 0; outs[i].Sender().LastStored() < ins[i].Receiver().LastStored(); a++ {
			if a >= 10000 {
				t.Fatalf("SA %d: sender durable %d stuck below receiver durable %d",
					i, outs[i].Sender().LastStored(), ins[i].Receiver().LastStored())
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	g.ResetAll()
	if _, err := outs[0].Seal([]byte("down")); err == nil {
		t.Fatal("Seal while down succeeded, want error")
	}
	if err := g.WakeAll(); err != nil {
		t.Fatalf("WakeAll: %v", err)
	}

	for i := 0; i < n; i++ {
		// The leaped counter must clear everything handed out pre-reset.
		if got := outs[i].Sender().Seq(); got < preSeq[i] {
			t.Errorf("SA %d: post-wake seq %d < pre-reset %d — sequence reuse", i, got, preSeq[i])
		}
		// Replays of pre-reset traffic must be rejected...
		if _, verdict, err := g.Open(replays[i]); err != nil || verdict.Delivered() {
			t.Errorf("SA %d: replay after reset = (%v, %v), want discarded", i, verdict, err)
		}
		// ...and fresh traffic must flow.
		src, dst := gwAddr(i)
		wire := gwSeal(t, g, src, dst, []byte("post-reset"))
		if _, verdict := gwOpen(t, g, wire); !verdict.Delivered() {
			t.Errorf("SA %d: fresh post-reset = %v, want delivered", i, verdict)
		}
	}
}

// TestGatewayRecoveryFromDisk reboots the whole gateway process: a second
// gateway over the same journal path must resume with counters at or above
// the first life's, so no SA ever reuses a sequence number.
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
	const n = 8
	lastSeq := make([]uint64, n)
	for i := 0; i < n; i++ {
		out, err := g.AddOutbound(uint32(0x3000+i), testKeys(false), gwSelector(i))
		if err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		src, dst := gwAddr(i)
		for p := 0; p < 40; p++ {
			gwSeal(t, g, src, dst, []byte("x"))
		}
		lastSeq[i] = out.Sender().Seq()
	}
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
	outs := make([]*OutboundSA, n)
	for i := 0; i < n; i++ {
		// AddOutbound sees the prior life's counter in the journal and
		// resumes through the paper's wake-up on its own; no hand-rolled
		// Reset/Wake needed.
		outs[i], err = g2.AddOutbound(uint32(0x3000+i), testKeys(false), gwSelector(i))
		if err != nil {
			t.Fatalf("AddOutbound 2: %v", err)
		}
	}
	if err := g2.WakeAll(); err != nil {
		t.Fatalf("WakeAll: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := outs[i].Sender().Seq(); got < lastSeq[i] {
			t.Errorf("SA %d: rebooted seq %d < pre-reboot %d — reuse across process restart", i, got, lastSeq[i])
		}
	}
}

// TestGatewayAddAfterClose: registration on a closed gateway must fail
// cleanly (no panic, no stranded journal claim).
func TestGatewayAddAfterClose(t *testing.T) {
	g, _ := testGateway(t)
	j := g.Journal()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := g.AddOutbound(0x1, testKeys(false), gwSelector(1)); !errors.Is(err, store.ErrClosed) {
		t.Errorf("AddOutbound after Close = %v, want ErrClosed", err)
	}
	if _, err := g.AddInbound(0x1, testKeys(false)); !errors.Is(err, store.ErrClosed) {
		t.Errorf("AddInbound after Close = %v, want ErrClosed", err)
	}
	// The failed Adds left no claim behind: a successor gateway owns the SPI.
	g2, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	defer g2.Close()
	if _, err := g2.AddOutbound(0x1, testKeys(false), gwSelector(1)); err != nil {
		t.Errorf("successor AddOutbound = %v, want nil", err)
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

	if _, err := g1.AddOutbound(0x9000, testKeys(false), gwSelector(1)); err != nil {
		t.Fatalf("g1 AddOutbound: %v", err)
	}
	if _, err := g2.AddOutbound(0x9000, testKeys(false), gwSelector(2)); !errors.Is(err, ErrDuplicateSPI) {
		t.Errorf("g2 duplicate AddOutbound = %v, want ErrDuplicateSPI", err)
	}
	// A disjoint SPI on the shared journal is fine.
	if _, err := g2.AddOutbound(0x9001, testKeys(false), gwSelector(2)); err != nil {
		t.Errorf("g2 disjoint AddOutbound = %v, want nil", err)
	}
}

// gateStore is a lane-less store whose Save blocks until the gate opens: a
// pool worker that takes it stays inside that round, so everything queued
// meanwhile lands in the worker's next one.
type gateStore struct {
	store.Mem
	entered, gate chan struct{}
}

func (g *gateStore) Save(v uint64) error {
	g.entered <- struct{}{}
	<-g.gate
	return g.Mem.Save(v)
}

// parkWorkers parks every worker of a default-size pool inside a round and
// returns the call that lets them go.
func parkWorkers(pool *store.SaverPool) (release func()) {
	hold := &gateStore{entered: make(chan struct{}), gate: make(chan struct{})}
	for w := 0; w < store.DefaultPoolWorkers; w++ {
		pool.Saver(hold).StartSave(1, nil)
	}
	for w := 0; w < store.DefaultPoolWorkers; w++ {
		<-hold.entered
	}
	return sync.OnceFunc(func() { close(hold.gate) })
}

// TestGatewayWakeAllCommitsPerLane: a wake-up queues every SA's post-wake
// SAVE at once, and the pool's workers stage a whole round before they
// commit, so 512 SAs over 64 lanes come back up for about one fsync per
// lane — not one per SA — each resuming from exactly fetched + 2K.
func TestGatewayWakeAllCommitsPerLane(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const lanes, pairs, k = 64, 256, 25
	l, err := store.OpenLanes(t.TempDir(), store.LanesCount(lanes))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	pool := store.NewSaverPool(0)
	defer pool.Close()
	g, err := NewGateway(GatewayConfig{Journal: l, Pool: pool, K: k, W: 64})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	defer g.Close()

	// Four installers at once; every SA's birth is only staged, and the
	// wake below clears it (its post-wake SAVE covers the record).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < pairs; i += 4 {
				spi := uint32(0x7000 + i)
				if _, err := g.AddOutbound(spi, testKeys(false), gwSelector(i)); err != nil {
					t.Errorf("AddOutbound: %v", err)
				}
				if _, err := g.AddInbound(spi, testKeys(false)); err != nil {
					t.Errorf("AddInbound: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	fetched := func(key string) uint64 {
		v, ok, err := l.Cell(key).Fetch()
		if err != nil || !ok {
			t.Fatalf("Fetch %s = (%d, %v, %v)", key, v, ok, err)
		}
		return v
	}

	g.ResetAll()
	// Park every worker, start the wake, and let the workers go only once
	// every SA's post-wake SAVE is queued: the wake is then one round each.
	release := parkWorkers(pool)
	queued := pool.SavesRequested()
	woken := make(chan error, 1)
	go func() { woken <- g.WakeAll() }()
	for pool.SavesRequested() < queued+2*pairs {
		time.Sleep(50 * time.Microsecond)
	}
	before := l.Syncs()
	release()
	if err := <-woken; err != nil {
		t.Fatalf("WakeAll: %v", err)
	}
	if got := l.Syncs() - before; got > 2*lanes {
		t.Errorf("waking %d SAs over %d lanes cost %d fsyncs, want at most %d", 2*pairs, lanes, got, 2*lanes)
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

// wakeAllFixture is a gateway of pairs SA pairs (SPIs 0x7100+i) that has
// been ResetAll and whose every pool worker is parked inside a round, so a
// WakeAll started on it fetches, queues its post-wake SAVEs and cannot
// finish until release() is called. wait blocks until n of those SAVEs are
// queued; events records what OnLifecycle saw.
type wakeAllFixture struct {
	g       *Gateway
	j       *store.Lanes
	release func()
	wait    func(n int)
	mu      sync.Mutex
	events  []string
}

func newWakeAllFixture(t *testing.T, pairs int) *wakeAllFixture {
	t.Helper()
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), "gw.journal"), store.LanesCount(1))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	pool := store.NewSaverPool(0)
	f := &wakeAllFixture{j: j}
	f.g, err = NewGateway(GatewayConfig{Journal: j, Pool: pool, K: 5, W: 64,
		OnLifecycle: func(kind string, sas int) {
			f.mu.Lock()
			f.events = append(f.events, fmt.Sprintf("%s=%d", kind, sas))
			f.mu.Unlock()
		}})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	for i := 0; i < pairs; i++ {
		if _, err := f.g.AddOutbound(uint32(0x7100+i), testKeys(false), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := f.g.AddInbound(uint32(0x7100+i), testKeys(false)); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	f.g.ResetAll()
	f.release = parkWorkers(pool)
	t.Cleanup(func() { f.release(); pool.Close(); f.g.Close() })
	queued := pool.SavesRequested()
	f.wait = func(n int) {
		for pool.SavesRequested() < queued+uint64(n) {
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
	f.wait(2 * pairs)

	torn, _ := f.g.SAD().Lookup(0x7103)
	torn.Receiver().Reset()
	gone, _ := f.g.Outbound(0x7105)
	removed := make(chan bool, 1)
	go func() { removed <- f.g.RemoveOutbound(0x7105) }() // flushes its saver: returns after release
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

// TestGatewayWakeAllWaitsForAllOnFailure: two SAs whose FETCH finds nothing
// fail at once, while every other post-wake SAVE is still queued. WakeAll
// used to return at the first of them, report sas=1 and leave the rest in
// flight; it now returns only when every wake it issued has settled, with
// the first error, and reports both failures.
func TestGatewayWakeAllWaitsForAllOnFailure(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const pairs = 8
	f := newWakeAllFixture(t, pairs)
	for _, key := range []string{OutboundKey(0x7100), InboundKey(0x7106)} {
		if err := f.j.Delete(key); err != nil {
			t.Fatalf("Delete %s: %v", key, err)
		}
	}
	woken := make(chan error, 1)
	go func() { woken <- f.g.WakeAll() }()
	f.wait(2*pairs - 2)
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

// TestSPDAddNotQuadratic: adding a host route to a large all-host table
// copies the small recent half of the index, not the table, so installing n
// routes is not quadratic — and every route stays reachable, first match
// first, across the folds of recent into exact.
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
	if v := p.view(); len(v.exact)+len(v.recent) != have+add || len(v.recent)*len(v.recent) > len(v.exact) {
		t.Errorf("index holds %d + %d routes, want %d with recent within its bound", len(v.exact), len(v.recent), have+add)
	}
}
