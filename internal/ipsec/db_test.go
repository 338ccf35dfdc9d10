package ipsec

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

// probeLengths returns the mean and the worst number of slots a successful
// lookup inspects over keys 0..n-1: the distance from key k's home slot to
// the slot holding it, plus one. holds reports whether slot i holds key k.
func probeLengths(t *testing.T, n, slots int, home func(k int) uint64, holds func(i uint64, k int) bool) (float64, int) {
	t.Helper()
	mask := uint64(slots - 1)
	total, worst := 0, 0
	for k := 0; k < n; k++ {
		probes := 1
		for i := home(k); !holds(i, k); i = (i + 1) & mask {
			if probes++; probes > slots {
				t.Fatalf("key %d is not in the table", k)
			}
		}
		total += probes
		worst = max(worst, probes)
	}
	return float64(total) / float64(n), worst
}

// Bounds on a table at its maximum load. At these sizes random keys
// average 1.2 slots a successful lookup in a quarter-full SAD, whose
// longest run reads 13 or so, and the gateway host pairs 1.5 in a
// half-full SPD.
const (
	maxMeanProbes  = 2
	maxWorstProbes = 32
)

// TestSADProbeLengths fills SADs to their maximum load with sequential
// SPIs (the common allocator) and with random ones, under fixed seeds, and
// bounds the probe runs a lookup walks. It also checks that two databases
// draw different seeds, so SPIs that collide in one do not in the other.
func TestSADProbeLengths(t *testing.T) {
	const n = 1 << 14
	rng := rand.New(rand.NewPCG(1, 2))
	random := make([]uint32, 0, n)
	seen := make(map[uint32]bool, n)
	for len(random) < n {
		if spi := rng.Uint32(); !seen[spi] {
			seen[spi] = true
			random = append(random, spi)
		}
	}
	sequential := make([]uint32, n)
	for i := range sequential {
		sequential[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		name string
		spis []uint32
	}{{"sequential", sequential}, {"random", random}} {
		worstMean, worstRun := 0.0, 0
		for seed := uint64(1); seed <= 8; seed++ {
			d := NewSAD()
			d.seed = seed * 0x9e3779b97f4a7c15
			for _, spi := range c.spis {
				d.Add(&InboundSA{saBase: saBase{spi: spi}})
			}
			tab := d.tab.Load()
			if len(tab.slots) != 4*n {
				t.Fatalf("%s: %d SAs in %d slots, want the table at its maximum load (%d slots)", c.name, n, len(tab.slots), 4*n)
			}
			mean, worst := probeLengths(t, n, len(tab.slots),
				func(k int) uint64 { return d.home(tab, c.spis[k]) },
				func(i uint64, k int) bool {
					sa := tab.slots[i].Load()
					return sa != nil && sa.spi == c.spis[k]
				})
			if mean > maxMeanProbes || worst > maxWorstProbes {
				t.Errorf("%s SPIs, seed %d: mean %.2f, worst %d slots a lookup; want at most %d and %d",
					c.name, seed, mean, worst, maxMeanProbes, maxWorstProbes)
			}
			worstMean, worstRun = max(worstMean, mean), max(worstRun, worst)
		}
		t.Logf("%s SPIs at a quarter load, 8 seeds: mean up to %.2f, worst %d slots", c.name, worstMean, worstRun)
	}
	if NewSAD().seed == NewSAD().seed {
		t.Error("two SADs drew the same hash seed")
	}
}

// TestSPDProbeLengths fills an SPD's index to its maximum load with the
// host pairs the gateway tests and the benchmark install (10.0.x.y ->
// 10.1.x.y: source and destination differ in one fixed octet) and bounds
// the probe runs a lookup walks.
func TestSPDProbeLengths(t *testing.T) {
	const n = 1 << 14
	p := NewSPD()
	for i := 0; i < n; i++ {
		p.Add(gwSelector(i), &OutboundSA{})
	}
	tab := p.view().index
	if len(tab.slots) != 2*n {
		t.Fatalf("%d routes in %d slots, want the index at its maximum load (%d slots)", n, len(tab.slots), 2*n)
	}
	mean, worst := probeLengths(t, n, len(tab.slots),
		func(k int) uint64 {
			return tab.home(gwAddr(k))
		},
		func(i uint64, k int) bool {
			src, dst := gwAddr(k)
			return tab.slots[i].pair == hostPair{src: src, dst: dst}
		})
	t.Logf("gateway host pairs at half load: mean %.2f, worst %d slots", mean, worst)
	if mean > maxMeanProbes || worst > maxWorstProbes {
		t.Errorf("mean %.2f, worst %d slots a lookup; want at most %d and %d", mean, worst, maxMeanProbes, maxWorstProbes)
	}
}

// TestDatabasesConcurrentGrowth runs the SAD's Add/Delete and the SPD's
// Add/Replace/Remove through several table doublings while readers look up
// every key. A lookup returns nothing or an SA registered for exactly its
// key: never a tombstone, another key's SA, or a half-written slot. A key
// that was added before the lookup began and is never deleted is always
// found, whatever is deleted, replaced or rebuilt around it.
func TestDatabasesConcurrentGrowth(t *testing.T) {
	watchdog.Arm(t, 20*time.Second)
	const n = 1024 // the SAD's 8 slots grow to 4096, the SPD's to 2048
	var stop atomic.Bool
	var wg sync.WaitGroup
	read := func(added *atomic.Int64, check func(k int, stable bool)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := i % n
				check(k, int64(k) < added.Load())
			}
		}()
	}

	// SAD: SPI k+1 has two SAs. Even keys are stable: the first SA, later
	// replaced in place by the second. Odd keys are deleted as soon as they
	// are added and come back with their second SA 64 keys later, so their
	// tombstones sit in the runs for a while.
	d := NewSAD()
	var sadAdded atomic.Int64
	inbound := make([][2]*InboundSA, n)
	for k := range inbound {
		inbound[k] = [2]*InboundSA{{saBase: saBase{spi: uint32(k + 1)}}, {saBase: saBase{spi: uint32(k + 1)}}}
	}
	read(&sadAdded, func(k int, added bool) {
		sa, ok := d.Lookup(uint32(k + 1))
		switch {
		case ok != (sa != nil) || ok && sa != inbound[k][0] && sa != inbound[k][1]:
			t.Errorf("SAD.Lookup(%d) = (%p, %v), not an SA registered for it", k+1, sa, ok)
			stop.Store(true)
		case !ok && added && k%2 == 0:
			t.Errorf("SAD.Lookup(%d) missed a key that was never deleted", k+1)
			stop.Store(true)
		}
	})

	// SPD: route k is gwSelector(k). Replace repoints every sixteenth route
	// to its second SA; Remove takes every route j with j%8 == 7 out, and
	// an Add puts it back, so those are the unstable ones.
	p := NewSPD()
	var spdAdded atomic.Int64
	outbound := make([][2]*OutboundSA, n)
	for k := range outbound {
		outbound[k] = [2]*OutboundSA{{saBase: saBase{spi: uint32(k + 1)}}, {saBase: saBase{spi: uint32(n + k + 1)}}}
	}
	read(&spdAdded, func(k int, added bool) {
		src, dst := gwAddr(k)
		sa, ok := p.Lookup(src, dst)
		switch {
		case ok != (sa != nil) || ok && sa != outbound[k][0] && sa != outbound[k][1]:
			t.Errorf("SPD.Lookup(route %d) = (%p, %v), not an SA registered for it", k, sa, ok)
			stop.Store(true)
		case !ok && added && k%8 != 7:
			t.Errorf("SPD.Lookup(route %d) missed a route that was never removed", k)
			stop.Store(true)
		}
	})

	for k := 0; k < n && !stop.Load(); k++ {
		d.Add(inbound[k][0])
		if k%2 == 1 {
			d.Delete(uint32(k + 1))
		}
		sadAdded.Store(int64(k + 1))
		if j := k - 64; j >= 0 && j%2 == 1 {
			d.Add(inbound[j][1])
		}
		if k%3 == 0 {
			d.Add(inbound[k/2&^1][1]) // an even key, replaced in place
		}
		p.Add(gwSelector(k), outbound[k][0])
		spdAdded.Store(int64(k + 1))
		if k%16 == 15 {
			p.Replace(outbound[k/2][0], outbound[k/2][1])
		}
		if k%32 == 31 {
			j := k / 4
			removed := p.Remove(outbound[j][0].SPI()) + p.Remove(outbound[j][1].SPI())
			p.Add(gwSelector(j), outbound[j][removed%2])
		}
	}
	stop.Store(true)
	wg.Wait()
	for j := n - 64; j < n; j++ {
		if j%2 == 1 {
			d.Add(inbound[j][1])
		}
	}

	// Every key is registered now. Deleting every third leaves the rest
	// reachable through the tombstones.
	for k := 0; k < n; k += 3 {
		d.Delete(uint32(k + 1))
	}
	if got, want := d.Len(), n-(n+2)/3; got != want {
		t.Errorf("SAD.Len = %d, want %d", got, want)
	}
	for k := 0; k < n; k++ {
		sa, ok := d.Lookup(uint32(k + 1))
		if ok != (k%3 != 0) || ok && sa != inbound[k][0] && sa != inbound[k][1] {
			t.Fatalf("after the writers: SAD.Lookup(%d) = (%p, %v)", k+1, sa, ok)
		}
		src, dst := gwAddr(k)
		if sa, ok := p.Lookup(src, dst); !ok || sa != outbound[k][0] && sa != outbound[k][1] {
			t.Fatalf("after the writers: SPD lacks route %d", k)
		}
	}
}

// allocatedPerAdd returns the bytes allocated per call over n calls of add,
// after setup: the heap's own count, no clock read.
func allocatedPerAdd(n int, add func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		add(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestAddAllocationFlat guards against a return of the quadratic install:
// an Add that copies its database allocates in proportion to what the
// database holds, so bytes per Add at 100k would be about ten times those
// at 10k. A bounded Add stays under twice, whatever the host's speed.
func TestAddAllocationFlat(t *testing.T) {
	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0x5A}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0xA5}, EncKeySize),
	}
	gateway := func(t *testing.T) *Gateway {
		lanes, err := store.OpenLanes(t.TempDir(), store.LanesWithoutSync())
		if err != nil {
			t.Fatalf("OpenLanes: %v", err)
		}
		t.Cleanup(func() { lanes.Close() })
		gw, err := NewGateway(GatewayConfig{Journal: lanes})
		if err != nil {
			t.Fatalf("NewGateway: %v", err)
		}
		t.Cleanup(func() { gw.Close() })
		return gw
	}
	cases := []struct {
		name string
		// install returns the function that performs Add number i.
		install func(t *testing.T, n int) func(i int)
	}{
		{"SAD.Add", func(t *testing.T, n int) func(int) {
			d, sas := NewSAD(), make([]InboundSA, n)
			return func(i int) {
				sas[i].spi = uint32(i + 1)
				d.Add(&sas[i])
			}
		}},
		{"SPD.Add", func(t *testing.T, n int) func(int) {
			p, sa := NewSPD(), &OutboundSA{}
			sels := make([]Selector, n)
			for i := range sels {
				sels[i] = gwSelector(i)
			}
			return func(i int) { p.Add(sels[i], sa) }
		}},
		{"Gateway.AddInbound", func(t *testing.T, n int) func(int) {
			gw := gateway(t)
			return func(i int) {
				if _, err := gw.AddInbound(uint32(i+1), keys); err != nil {
					t.Fatalf("AddInbound: %v", err)
				}
			}
		}},
		{"Gateway.AddOutbound", func(t *testing.T, n int) func(int) {
			gw := gateway(t)
			sels := make([]Selector, n)
			for i := range sels {
				sels[i] = gwSelector(i)
			}
			return func(i int) {
				if _, err := gw.AddOutbound(uint32(i+1), keys, sels[i]); err != nil {
					t.Fatalf("AddOutbound: %v", err)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			small := allocatedPerAdd(10_000, c.install(t, 10_000))
			large := allocatedPerAdd(100_000, c.install(t, 100_000))
			t.Logf("%.0f B an Add at 10k, %.0f B at 100k", small, large)
			if large > 2*small {
				t.Errorf("%.0f B an Add at 100k, more than twice the %.0f B at 10k", large, small)
			}
		})
	}
}

// BenchmarkLookup times the two per-packet lookups on populations the
// size of the benchmark's gateways, in a shuffled order.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{256, 2048} {
		order := rand.New(rand.NewPCG(1, uint64(n))).Perm(n)
		b.Run(fmt.Sprintf("SAD/%d", n), func(b *testing.B) {
			d := NewSAD()
			for i := 0; i < n; i++ {
				d.Add(&InboundSA{saBase: saBase{spi: uint32(i + 256)}})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := d.Lookup(uint32(order[i%n] + 256)); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("SPD/%d", n), func(b *testing.B) {
			p := NewSPD()
			addrs := make([][2]netip.Addr, n)
			for i := range addrs {
				p.Add(gwSelector(i), &OutboundSA{})
				addrs[i][0], addrs[i][1] = gwAddr(order[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := &addrs[i%n]
				if _, ok := p.Lookup(a[0], a[1]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
