package ipsec

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/raceflag"
	"antireplay/internal/store"
	"antireplay/internal/telemetry"
)

// The steady-state datapath contract, pinned: SealAppend and OpenAppend, on
// an SA and through an instrumented gateway, allocate NOTHING per packet
// once their reusable buffers have warmed up. CI runs these in the non-race test pass;
// a regression here means a per-packet allocation crept back into the hot
// path. (Skipped under -race: the detector's instrumentation allocates.)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
}

func newBenchOutbound(t testing.TB) *OutboundSA {
	t.Helper()
	var m store.Mem
	snd, err := core.NewSender(core.SenderConfig{K: 1 << 30, Store: &m})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewOutboundSA(0x1001, testKeys(), snd, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func newBenchInbound(t testing.TB, spi uint32) *InboundSA {
	t.Helper()
	var m store.Mem
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 1 << 30, W: 1024, Store: &m})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewInboundSA(spi, testKeys(), rcv, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func TestZeroAllocSealAppend(t *testing.T) {
	skipUnderRace(t)
	sa := newBenchOutbound(t)
	payload := make([]byte, 256)
	buf := make([]byte, 0, 4096)
	if got := testing.AllocsPerRun(500, func() {
		out, err := sa.SealAppend(buf[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	}); got != 0 {
		t.Errorf("SealAppend allocates %v per op, want 0", got)
	}
}

func TestZeroAllocOpenAppend(t *testing.T) {
	skipUnderRace(t)
	out := newBenchOutbound(t)
	in := newBenchInbound(t, 0x1001)
	payload := make([]byte, 256)
	buf := make([]byte, 0, 4096)
	wires := make([][]byte, 600)
	for i := range wires {
		w, err := out.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
	}
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		res, _, err := in.OpenAppend(buf[:0], wires[i])
		if err != nil {
			t.Fatal(err)
		}
		buf = res[:0]
		i++
	}); got != 0 {
		t.Errorf("OpenAppend allocates %v per op, want 0", got)
	}
}

// The instrumented variants: the same per-packet contract with the
// telemetry layer fully attached — the gateway registered as a /metrics
// collector and the lifecycle hook set. Collection is read-side (the
// scrape walks the SA population; the datapath only bumps its existing
// atomic counters), so registration must not cost the hot path a single
// allocation. A scrape before and after the measured window proves the
// instruments are actually live, not just registered.

func newInstrumentedGateway(t *testing.T) (*Gateway, *telemetry.Registry) {
	t.Helper()
	j, err := store.OpenLanes(t.TempDir()+"/j.log", store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	// K is huge so no background SAVE (which allocates in the saver pool)
	// fires inside the measured window.
	g, err := NewGateway(GatewayConfig{Journal: j, K: 1 << 30, W: 1024,
		OnLifecycle: func(string, int) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	reg := telemetry.NewRegistry()
	reg.RegisterCollector("apn_gateway", g)
	return g, reg
}

// scrapePackets returns the current apn_gateway seal/verify packet totals.
func scrapePackets(t *testing.T, reg *telemetry.Registry) (sealed, verified float64) {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "apn_gateway_seal_packets_total "); ok {
			fmt.Sscanf(v, "%g", &sealed) //nolint:errcheck // parse checked by caller
		}
		if v, ok := strings.CutPrefix(line, "apn_gateway_verify_packets_total "); ok {
			fmt.Sscanf(v, "%g", &verified) //nolint:errcheck // parse checked by caller
		}
	}
	return sealed, verified
}

func TestZeroAllocInstrumentedSealAppend(t *testing.T) {
	skipUnderRace(t)
	g, reg := newInstrumentedGateway(t)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.1.1")
	if _, err := g.AddOutbound(0x77, testKeys(), Selector{
		Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32),
	}); err != nil {
		t.Fatal(err)
	}
	before, _ := scrapePackets(t, reg)
	payload := make([]byte, 256)
	buf := make([]byte, 0, 4096)
	if got := testing.AllocsPerRun(500, func() {
		out, err := g.SealAppend(buf[:0], src, dst, payload)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	}); got != 0 {
		t.Errorf("instrumented Gateway.SealAppend allocates %v per op, want 0", got)
	}
	if after, _ := scrapePackets(t, reg); after <= before {
		t.Errorf("seal_packets_total stuck at %v, instruments not live", after)
	}
}

func TestZeroAllocInstrumentedOpenAppend(t *testing.T) {
	skipUnderRace(t)
	g, reg := newInstrumentedGateway(t)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.1.1")
	if _, err := g.AddOutbound(0x77, testKeys(), Selector{
		Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddInbound(0x77, testKeys()); err != nil {
		t.Fatal(err)
	}
	wires := make([][]byte, 600)
	for i := range wires {
		w, err := g.Seal(src, dst, make([]byte, 256))
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
	}
	_, before := scrapePackets(t, reg)
	buf := make([]byte, 0, 4096)
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		res, v, err := g.OpenAppend(buf[:0], wires[i])
		if err != nil {
			t.Fatal(err)
		}
		if !v.Delivered() {
			t.Fatalf("packet %d not delivered: %v", i, v)
		}
		buf = res[:0]
		i++
	}); got != 0 {
		t.Errorf("instrumented Gateway.OpenAppend allocates %v per op, want 0", got)
	}
	if _, after := scrapePackets(t, reg); after <= before {
		t.Errorf("verify_packets_total stuck at %v, instruments not live", after)
	}
}

// TestKeyFormatCompat pins the exact journal key strings of SA counters.
// These are on-disk names: an existing journal replays only if OutboundKey
// and InboundKey produce byte-identical strings forever, so the fixed-width
// hex encoder must match fmt.Sprintf("%s/%08x", ...) on every input shape.
func TestKeyFormatCompat(t *testing.T) {
	cases := []uint32{0, 1, 0xa, 0x10, 0xff, 0x1234, 0xabcdef, 0x00c0ffee, 0xdeadbeef, 0xffffffff}
	for _, spi := range cases {
		if got, want := OutboundKey(spi), fmt.Sprintf("tx/%08x", spi); got != want {
			t.Errorf("OutboundKey(%#x) = %q, want %q", spi, got, want)
		}
		if got, want := InboundKey(spi), fmt.Sprintf("rx/%08x", spi); got != want {
			t.Errorf("InboundKey(%#x) = %q, want %q", spi, got, want)
		}
	}
	// The literal strings, pinned independently of Sprintf so a formatting
	// change in either implementation is caught.
	if got := OutboundKey(0x2a); got != "tx/0000002a" {
		t.Errorf("OutboundKey(0x2a) = %q, want %q", got, "tx/0000002a")
	}
	if got := InboundKey(0xdeadbeef); got != "rx/deadbeef" {
		t.Errorf("InboundKey(0xdeadbeef) = %q, want %q", got, "rx/deadbeef")
	}
}

// installAllocsMax is what an install may allocate, each way: the journal
// cell, the pool handle, the endpoint, the SA, and inbound the window's
// ring (the window itself is embedded in the receiver). Outbound is one
// fewer since the SPD stopped republishing its view on every Add. The tables' amortized growth rounds away, the lane's
// key table included. A closure for the endpoint's install step, a
// separate window, a Flush condvar built ahead of any Flush, a wake
// callback moved to the heap, or a journal cell that keeps its key string
// put it back above; before those went, an install read 10 inbound and 9
// outbound, and 6 each way while the cell kept its key.
const (
	installAllocsMax         = 5
	installAllocsMaxOutbound = 4
)

// TestInstallAllocs pins the objects one AddInbound and one AddOutbound
// allocate on a warm gateway: what a million-SA install pays the allocator
// and, for as long as the SAs live, the collector's mark work.
func TestInstallAllocs(t *testing.T) {
	skipUnderRace(t)
	lanes, err := store.OpenLanes(t.TempDir(), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer lanes.Close()
	gw, err := NewGateway(GatewayConfig{Journal: lanes, W: 1024, ESN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	keys := testKeys()
	spi := uint32(0)
	for ; spi < 4096; spi++ { // warm: the tables past their first doublings
		if _, err := gw.AddInbound(spi+1, keys); err != nil {
			t.Fatal(err)
		}
		if _, err := gw.AddOutbound(spi+1, keys, installSelector(int(spi))); err != nil {
			t.Fatal(err)
		}
	}
	in := testing.AllocsPerRun(1000, func() {
		spi++
		if _, err := gw.AddInbound(spi, keys); err != nil {
			t.Fatal(err)
		}
	})
	out := testing.AllocsPerRun(1000, func() {
		spi++
		if _, err := gw.AddOutbound(spi, keys, installSelector(int(spi))); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per install: inbound %v (at most %d), outbound %v (at most %d)", in, installAllocsMax, out, installAllocsMaxOutbound)
	if in > installAllocsMax || out > installAllocsMaxOutbound {
		t.Errorf("an install allocates %v inbound and %v outbound objects, want at most %d and %d", in, out, installAllocsMax, installAllocsMaxOutbound)
	}
}

// wakeAllocsPerLane is what one WakeAll may allocate per commit lane: the
// lane's share of the batch arrays and of the workers that run the lanes,
// and a compaction when the wake's commit is one. Nothing is per SA: a
// callback, a pool hand-off or a queued save per SA puts a wake of 2,048
// pairs in the thousands, where it read about 12,000 while each post-wake
// SAVE went through the pool.
const wakeAllocsPerLane = 16

// TestWakeAllAllocs pins the objects one WakeAll of 2,048 SA pairs over a
// default medium allocates: bounded by the lanes, not by the SAs.
func TestWakeAllAllocs(t *testing.T) {
	skipUnderRace(t)
	lanes, err := store.OpenLanes(t.TempDir(), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer lanes.Close()
	gw, err := NewGateway(GatewayConfig{Journal: lanes, W: 1024, ESN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	const pairs, rounds = 2048, 8
	keys := testKeys()
	for i := 0; i < pairs; i++ {
		if _, err := gw.AddInbound(uint32(i+1), keys); err != nil {
			t.Fatal(err)
		}
		if _, err := gw.AddOutbound(uint32(i+1), keys, installSelector(i)); err != nil {
			t.Fatal(err)
		}
	}
	var allocs uint64
	for r := 0; r <= rounds; r++ { // round 0 warms the lanes' staging slabs
		gw.ResetAll()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := gw.WakeAll(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if r > 0 {
			allocs += after.Mallocs - before.Mallocs
		}
	}
	perWake, bound := allocs/rounds, uint64(wakeAllocsPerLane*lanes.LaneCount())
	t.Logf("allocations per WakeAll of %d SAs over %d lanes: %d (at most %d)", 2*pairs, lanes.LaneCount(), perWake, bound)
	if perWake > bound {
		t.Errorf("a WakeAll of %d SAs allocates %d objects, want at most %d a lane (%d)", 2*pairs, perWake, wakeAllocsPerLane, bound)
	}
}
