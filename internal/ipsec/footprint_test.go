package ipsec

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"antireplay/internal/store"
)

// TestSAFootprint pins heap bytes per installed SA, each way, at the
// default window and at the benchmark's W = 1024 with ESN, so the install
// cannot silently grow. 100k SAs are installed on one gateway over a
// default medium — the million-SA configuration, downscaled to keep the
// test seconds-long — and the before/after runtime.ReadMemStats delta is
// divided out: the gateway's outbound index, the SAD's or SPD's table
// slots, the SA (keys by value, an AEAD pointer that stays nil until the
// first packet), its endpoint (a receiver's window embedded, its ring
// beside it), the journal cell and its lane's table slot, and the pool
// handle.
//
// Each budget is at most 1.3x its reading (2-vCPU Xeon, with and without
// -race): inbound at W = 64 read 2,154 B while the inbound SA carried a
// 1 KiB sharded tally block, 1,067 with four plain counters and a per-SA
// pool of HMAC states, 955 with the AES-GCM suite, 973 once the SAD became
// one table at most a quarter full, 749 once the SA held its keys and
// window by value and nothing it does not use, 725 once the gateway
// stopped keeping a map of its cells beside its SAs, and 685 once the
// journal cell became its key's one slot (no key string, no value and
// claim maps beside it; outbound 787 to 747, inbound at W = 1024 965 to
// 925). Outbound then read 642 once an SPD route slot became one 8-byte
// word and a rekey stopped copying the entries, and inbound at W = 1024
// 813 once the window ring held ceil(W/64)+1 words, not 32. The live figure, logged after one packet per SA, adds the AES-GCM
// state the first packet builds.
func TestSAFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement is slow")
	}
	const n = 100_000
	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0x5A}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0xA5}, EncKeySize),
	}
	var peer suite // seals what the inbound SAs open
	peer.init(keys)

	for _, c := range []struct {
		name    string
		inbound bool
		w       int
		esn     bool
		budget  uint64
	}{
		{"inbound/W64", true, 0, false, 890},
		{"outbound/W64", false, 0, false, 830},
		{"inbound/W1024-ESN", true, 1024, true, 1050},
		{"outbound/W1024-ESN", false, 1024, true, 830},
	} {
		t.Run(c.name, func(t *testing.T) {
			lanes, err := store.OpenLanes(t.TempDir(), store.LanesWithoutSync())
			if err != nil {
				t.Fatalf("OpenLanes: %v", err)
			}
			defer lanes.Close()
			gw, err := NewGateway(GatewayConfig{Journal: lanes, W: c.w, ESN: c.esn})
			if err != nil {
				t.Fatalf("NewGateway: %v", err)
			}
			defer gw.Close()

			base := heapNow()
			for i := 0; i < n; i++ {
				if c.inbound {
					_, err = gw.AddInbound(uint32(i+1), keys)
				} else {
					_, err = gw.AddOutbound(uint32(i+1), keys, installSelector(i))
				}
				if err != nil {
					t.Fatalf("install %d: %v", i, err)
				}
			}
			installed := (heapNow() - base) / n

			// One packet per SA: the first packet waits for the SA's
			// staged birth and builds its AES-GCM state.
			payload := make([]byte, 64)
			buf, wire := make([]byte, 0, 256), make([]byte, 0, 256)
			for i := 0; i < n; i++ {
				spi := uint32(i + 1)
				if c.inbound {
					_, v, err := gw.OpenAppend(buf, peer.seal(spi, 1, payload, wire))
					if err != nil || !v.Delivered() {
						t.Fatalf("open on %#x: %v, %v", spi, v, err)
					}
				} else {
					sel := installSelector(i)
					if _, err := gw.SealAppend(buf, sel.Src.Addr(), sel.Dst.Addr(), payload); err != nil {
						t.Fatalf("seal on %#x: %v", spi, err)
					}
				}
			}
			live := (heapNow() - base) / n
			t.Logf("%d SAs: %d bytes/SA installed (budget %d), %d live after one packet each",
				n, installed, c.budget, live)
			if installed > c.budget {
				t.Errorf("heap footprint %d bytes/SA exceeds the %d budget", installed, c.budget)
			}
		})
	}
}

// heapNow returns the live heap after a full collection.
func heapNow() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: the first only unlinks what sync.Pools still hold
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestOutboundSASize keeps OutboundSA in the allocator's 96-byte size
// class with its SPD chain head and registry stamp.
func TestOutboundSASize(t *testing.T) {
	if got := unsafe.Sizeof(OutboundSA{}); got > 96 {
		t.Errorf("OutboundSA is %d B, past the 96-byte size class", got)
	}
}
