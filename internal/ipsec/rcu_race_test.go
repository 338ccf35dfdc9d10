package ipsec

import (
	"net/netip"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

// TestRaceRCUDatapath hammers the RCU read side of both databases — SAD
// lookups/opens and SPD lookups/seals from many goroutines — while the
// control plane concurrently mutates them: Add, Delete, Replace-style rekey
// cutovers (RekeyOutbound/RekeyInbound through the gateway), and removals.
// Run with -race. The assertions are the RCU safety contract:
//
//   - a reader never observes a half-updated database (every lookup either
//     misses cleanly or returns a fully constructed SA);
//   - traffic sealed via a snapshot that still points at the old generation
//     keeps verifying during the overlap (make-before-break);
//   - exactly-once: no sequence number is ever delivered twice, across all
//     generations, under any interleaving of cutovers and lookups.
func TestRaceRCUDatapath(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), "j.log"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	g, err := NewGateway(GatewayConfig{Journal: j, K: 64, W: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.1.1")
	sel := Selector{
		Src: netip.MustParsePrefix("10.0.0.1/32"),
		Dst: netip.MustParsePrefix("10.0.1.1/32"),
	}
	if _, err := g.AddOutbound(1, testKeys(), sel); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddInbound(1, testKeys()); err != nil {
		t.Fatal(err)
	}

	var (
		stop      atomic.Bool
		delivered sync.Map // payload identity (seq echoed in payload) -> seen
		wg        sync.WaitGroup
	)

	// Writers: rekey the tunnel through successive generations, plus churn
	// unrelated SAD/SPD entries so copy-on-write rebuilds overlap lookups.
	wg.Add(1)
	go func() {
		defer wg.Done()
		spi := uint32(1)
		for i := 0; i < 24; i++ {
			next := spi + 1
			if _, err := g.RekeyInbound(spi, next, testKeys()); err != nil {
				t.Errorf("RekeyInbound: %v", err)
				return
			}
			if _, err := g.RekeyOutbound(spi, next, testKeys()); err != nil {
				t.Errorf("RekeyOutbound: %v", err)
				return
			}
			// Old inbound generation lingers for in-flight packets, then
			// retires; the old outbound is fully cut over already.
			g.RemoveOutbound(spi)
			g.RemoveInbound(spi)
			spi = next
		}
		stop.Store(true)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		churnSel := Selector{
			Src: netip.MustParsePrefix("10.9.0.0/16"),
			Dst: netip.MustParsePrefix("10.10.0.0/16"),
		}
		for i := uint32(0); !stop.Load(); i++ {
			spi := 0x9000 + i%8
			if sa, err := g.AddInbound(spi, testKeys()); err == nil && sa == nil {
				t.Error("AddInbound returned nil SA without error")
			}
			if _, err := g.AddOutbound(spi, testKeys(), churnSel); err == nil {
				g.RemoveOutbound(spi)
			}
			g.RemoveInbound(spi)
		}
	}()

	// Readers: seal through whatever SPD snapshot they observe and verify
	// through whatever SAD snapshot routes the SPI. ErrDraining and
	// ErrUnknownSPI are legitimate transients of a cutover racing a lookup;
	// double delivery never is.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			payload := make([]byte, 16)
			for i := 0; !stop.Load(); i++ {
				payload[0], payload[1] = byte(r), byte(i)
				wire, err := g.Seal(src, dst, payload)
				if err != nil {
					continue // draining/horizon backpressure mid-cutover
				}
				spi, _ := ParseSPI(wire)
				seqLo, _ := ParseSeqLo(wire)
				pt, verdict, err := g.Open(wire)
				if err != nil {
					continue // SA retired between seal and open
				}
				if verdict.Delivered() {
					if pt[0] != byte(r) || pt[1] != byte(i) {
						t.Errorf("payload corrupted across seal/open")
						return
					}
					key := uint64(spi)<<32 | uint64(seqLo)
					if _, dup := delivered.LoadOrStore(key, struct{}{}); dup {
						t.Errorf("spi %#x seq %d delivered twice", spi, seqLo)
						return
					}
					// Replay must never deliver again, on any snapshot.
					if _, v2, err2 := g.Open(wire); err2 == nil && v2.Delivered() {
						t.Errorf("replay of spi %#x seq %d delivered", spi, seqLo)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}
