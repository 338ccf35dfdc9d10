package ipsec

import (
	"bytes"
	"runtime"
	"testing"

	"antireplay/internal/store"
)

// saHeapBudget is the pinned per-SA heap budget in bytes: gateway map
// entries, the SAD's table slots, the inbound SA (window, keys, an AEAD
// pointer that stays nil until the first packet, receiver), its journal
// cell, and the pool handle. The compact cell representation is what keeps
// the journal side near-zero (a packed uint64 key instead of map+string per
// counter). Measured 2,154 B/SA while the inbound SA carried a 1 KiB
// sharded tally block, 1,067 B/SA with four plain atomic counters and a
// per-SA pool of HMAC states, 955 B/SA with the AES-GCM suite, and 973 B/SA
// once the SAD's 64 shard maps became one table at most a quarter full
// (2-vCPU Xeon, with and without -race); pinned with headroom so a regression
// trips loudly, not flakily.
const saHeapBudget = 1536

// TestSAFootprint pins heap bytes per installed SA so the compact cell
// representation can't silently regress. 100k inbound SAs are installed on
// one gateway over a 64-lane medium — the ISSUE's million-SA configuration,
// downscaled to keep the test seconds-long — and the before/after
// runtime.ReadMemStats delta is divided out.
func TestSAFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement is slow")
	}
	const n = 100_000

	lanes, err := store.OpenLanes(t.TempDir(), store.LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer lanes.Close()
	gw, err := NewGateway(GatewayConfig{Journal: lanes})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	defer gw.Close()

	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0x5A}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0xA5}, EncKeySize),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	for i := 0; i < n; i++ {
		if _, err := gw.AddInbound(uint32(i+1), keys); err != nil {
			t.Fatalf("AddInbound %d: %v", i, err)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	perSA := (after.HeapAlloc - before.HeapAlloc) / n
	t.Logf("%d SAs: %.1f MiB heap, %d bytes/SA (budget %d)",
		n, float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), perSA, saHeapBudget)
	if perSA > saHeapBudget {
		t.Errorf("heap footprint %d bytes/SA exceeds the %d budget", perSA, saHeapBudget)
	}

	// The population must actually work: spot-check admission state exists
	// on a few SAs across the SPI (and so lane) range.
	for _, spi := range []uint32{1, n / 2, n} {
		if _, ok := gw.SAD().Lookup(spi); !ok {
			t.Errorf("SAD lacks SPI %#x", spi)
		}
	}
}
