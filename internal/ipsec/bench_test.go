package ipsec

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// benchPair builds SAs with a huge K so background saves never trigger
// inside the measurement loop.
func benchPair(b *testing.B) (*OutboundSA, *InboundSA) {
	b.Helper()
	var sm, rm store.Mem
	snd, err := core.NewSender(core.SenderConfig{K: 1 << 40, Store: &sm})
	if err != nil {
		b.Fatal(err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 1 << 40, Store: &rm, W: 64})
	if err != nil {
		b.Fatal(err)
	}
	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{1}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{2}, EncKeySize),
	}
	out, err := NewOutboundSA(1, keys, snd, false, Lifetime{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	in, err := NewInboundSA(1, keys, rcv, false, Lifetime{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return out, in
}

// BenchmarkSeal measures the paper's T_send (per-message cost) — the
// denominator of the §4 sizing rule.
func BenchmarkSeal(b *testing.B) {
	for _, size := range []int{64, 1000, 1500} {
		b.Run(fmt.Sprintf("auth+enc/%dB", size), func(b *testing.B) {
			out, _ := benchPair(b)
			payload := bytes.Repeat([]byte{0x42}, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := out.Seal(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	for _, size := range []int{64, 1000} {
		b.Run(fmt.Sprintf("auth+enc/%dB", size), func(b *testing.B) {
			out, in := benchPair(b)
			payload := bytes.Repeat([]byte{0x42}, size)
			wires := make([][]byte, b.N)
			for i := range wires {
				w, err := out.Seal(payload)
				if err != nil {
					b.Fatal(err)
				}
				wires[i] = w
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, v, err := in.Open(wires[i]); err != nil || !v.Delivered() {
					b.Fatalf("Open: %v %v", v, err)
				}
			}
		})
	}
}

func BenchmarkOpenReplayReject(b *testing.B) {
	out, in := benchPair(b)
	wire, err := out.Seal([]byte("payload"))
	if err != nil {
		b.Fatal(err)
	}
	if _, v, err := in.Open(wire); err != nil || !v.Delivered() {
		b.Fatal("first open failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v, _ := in.Open(wire); v.Delivered() {
			b.Fatal("replay delivered")
		}
	}
}

// installSelector is host route i, distinct for every i below 2^24.
func installSelector(i int) Selector {
	return Selector{
		Src: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32),
		Dst: netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}), 32),
	}
}

// BenchmarkGatewayInstall times installing n SAs into a fresh gateway over
// a default medium without fsync: AddInbound, AddOutbound with one host
// route each, and Adopt of a snapshot of n SAs, half each way (a standby's
// mirror). An op is one whole install; ns/SA divides it out. The 1M rows
// skip under -short.
func BenchmarkGatewayInstall(b *testing.B) {
	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{1}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{2}, EncKeySize),
	}
	run := func(b *testing.B, n int, install func(gw *Gateway) error) {
		if n >= 1_000_000 && testing.Short() {
			b.Skip("a million SAs take seconds and a gigabyte; skipped under -short")
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			lanes, err := store.OpenLanes(b.TempDir(), store.LanesWithoutSync())
			if err != nil {
				b.Fatal(err)
			}
			gw, err := NewGateway(GatewayConfig{Journal: lanes})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			err = install(gw)
			b.StopTimer()
			gw.Close()
			lanes.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed())/float64(b.N*n), "ns/SA")
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("inbound/%d", n), func(b *testing.B) {
			run(b, n, func(gw *Gateway) error {
				for i := 0; i < n; i++ {
					if _, err := gw.AddInbound(uint32(i+1), keys); err != nil {
						return err
					}
				}
				return nil
			})
		})
		b.Run(fmt.Sprintf("outbound/%d", n), func(b *testing.B) {
			run(b, n, func(gw *Gateway) error {
				for i := 0; i < n; i++ {
					if _, err := gw.AddOutbound(uint32(i+1), keys, installSelector(i)); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	b.Run("adopt/100000", func(b *testing.B) {
		const n = 100_000
		var snap GatewaySnapshot
		for i := 0; i < n/2; i++ {
			sa := SASnapshot{SPI: uint32(i + 1), Keys: keys}
			snap.Outbound = append(snap.Outbound, sa)
			snap.Inbound = append(snap.Inbound, sa)
			snap.Policy = append(snap.Policy, PolicySnapshot{Selector: installSelector(i), SPI: sa.SPI})
		}
		run(b, n, func(gw *Gateway) error { return gw.Adopt(snap) })
	})
}

// BenchmarkGatewayWake times the paper's reset of a whole host (§3): a
// ResetAll and WakeAll of n SA pairs over a default medium with fsync on,
// W = 1024 and ESN. An op is one reset and wake of every SA; ns/SA divides
// it over the 2n SAs, and fsyncs/wake is what the medium synced for it. The
// gateway is installed once per row, outside the timer. The 1M rows skip
// under -short.
func BenchmarkGatewayWake(b *testing.B) {
	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{1}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{2}, EncKeySize),
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		var (
			dir   string
			lanes *store.Lanes
			gw    *Gateway
		)
		b.Run(fmt.Sprintf("pairs/%d", n), func(b *testing.B) {
			if n >= 1_000_000 && testing.Short() {
				b.Skip("a million SA pairs take seconds and gigabytes; skipped under -short")
			}
			if gw == nil { // once per row, not once per b.N probe
				var err error
				if dir, err = os.MkdirTemp("", "gateway-wake-*"); err != nil {
					b.Fatal(err)
				}
				if lanes, err = store.OpenLanes(dir); err != nil {
					b.Fatal(err)
				}
				if gw, err = NewGateway(GatewayConfig{Journal: lanes, W: 1024, ESN: true}); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if _, err := gw.AddInbound(uint32(i+1), keys); err != nil {
						b.Fatal(err)
					}
					if _, err := gw.AddOutbound(uint32(i+1), keys, installSelector(i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			syncs := lanes.Syncs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gw.ResetAll()
				if err := gw.WakeAll(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed())/float64(b.N*2*n), "ns/SA")
			b.ReportMetric(float64(lanes.Syncs()-syncs)/float64(b.N), "fsyncs/wake")
		})
		if gw != nil {
			gw.Close()
		}
		if lanes != nil {
			lanes.Close()
		}
		os.RemoveAll(dir)
	}
}

// rollover is the rollover an SA gets once a lifetime: RekeyOutbound (or
// RekeyInbound) of SPI spi onto next, then RemoveOutbound (RemoveInbound)
// of spi.
func rollover(gw *Gateway, inbound bool, spi, next uint32, keys KeyMaterial) error {
	var (
		err     error
		removed bool
	)
	if inbound {
		if _, err = gw.RekeyInbound(spi, next, keys); err == nil {
			removed = gw.RemoveInbound(spi)
		}
	} else if _, err = gw.RekeyOutbound(spi, next, keys); err == nil {
		removed = gw.RemoveOutbound(spi)
	}
	if err == nil && !removed {
		err = fmt.Errorf("rollover %#x -> %#x: the old SA was not registered", spi, next)
	}
	return err
}

// installRollover installs SAs 1..n one way into gw, outbound with one host
// route each, for a rollover of generation 0 (rolloverSPI).
func installRollover(gw *Gateway, inbound bool, n int, keys KeyMaterial) error {
	for i := 0; i < n; i++ {
		var err error
		if inbound {
			_, err = gw.AddInbound(uint32(i+1), keys)
		} else {
			_, err = gw.AddOutbound(uint32(i+1), keys, installSelector(i))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rolloverSPI is the SPI of SA i (0-based) of a population of n in
// generation gen.
func rolloverSPI(gen, n, i int) uint32 { return uint32(gen*n + i + 1) }

// BenchmarkGatewayRekey times the rollover of every SA of a gateway of n
// SAs over a default medium without fsync, as BenchmarkGatewayInstall
// installs them: an outbound row rekeys each SA onto a fresh SPI and
// removes the old one (RekeyOutbound, RemoveOutbound), an inbound row the
// same with RekeyInbound and RemoveInbound. An op rolls the whole
// population over once; ns/SA divides it out. The gateway is installed once
// per row, outside the timer. The 1M rows skip under -short.
func BenchmarkGatewayRekey(b *testing.B) {
	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{1}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{2}, EncKeySize),
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		for _, inbound := range []bool{false, true} {
			var (
				dir   string
				lanes *store.Lanes
				gw    *Gateway
				gen   int
			)
			b.Run(fmt.Sprintf("%s/%d", map[bool]string{false: "outbound", true: "inbound"}[inbound], n), func(b *testing.B) {
				if n >= 1_000_000 && testing.Short() {
					b.Skip("a million SAs take seconds and a gigabyte; skipped under -short")
				}
				if gw == nil { // once per row, not once per b.N probe
					var err error
					if dir, err = os.MkdirTemp("", "gateway-rekey-*"); err != nil {
						b.Fatal(err)
					}
					if lanes, err = store.OpenLanes(dir, store.LanesWithoutSync()); err != nil {
						b.Fatal(err)
					}
					if gw, err = NewGateway(GatewayConfig{Journal: lanes}); err != nil {
						b.Fatal(err)
					}
					if err := installRollover(gw, inbound, n, keys); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for range b.N {
					for i := 0; i < n; i++ {
						if err := rollover(gw, inbound, rolloverSPI(gen, n, i), rolloverSPI(gen+1, n, i), keys); err != nil {
							b.Fatal(err)
						}
					}
					gen++
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed())/float64(b.N*n), "ns/SA")
			})
			if gw != nil {
				gw.Close()
			}
			if lanes != nil {
				lanes.Close()
			}
			os.RemoveAll(dir)
		}
	}
}
