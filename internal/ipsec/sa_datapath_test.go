package ipsec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

// datapathGateway builds a gateway over a fresh journal with the given
// config; the journal is closed by test cleanup after the gateway.
func datapathGateway(t *testing.T, cfg GatewayConfig) *Gateway {
	t.Helper()
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), "gw.journal"), store.LanesCount(1))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	cfg.Journal = j
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// seededSender builds a sender whose durable counter already holds seed, so
// after reset+wake it resumes at seed+2K — the way a long-lived SA reaches
// the top of the sequence space without 2^32 Seal calls.
func seededSender(t *testing.T, k, seed uint64) *core.Sender {
	t.Helper()
	var m store.Mem
	if err := m.Save(seed); err != nil {
		t.Fatal(err)
	}
	snd, err := core.NewSender(core.SenderConfig{K: k, Store: &m})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	snd.Reset()
	snd.Wake()
	return snd
}

// TestSealSeqExhausted is the wrap regression: a non-ESN SA seeded near
// 2^32 must seal every number up to 0xFFFFFFFF and then hard-fail with
// ErrSeqExhausted instead of truncating seq64 and reusing wire sequence
// numbers (RFC 4303 forbids the cycle).
func TestSealSeqExhausted(t *testing.T) {
	const k = 10
	snd := seededSender(t, k, math.MaxUint32-2*k-5) // resumes at 2^32 - 6
	out, err := NewOutboundSA(0x5EED, testKeys(), snd, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	sealed := 0
	for i := 0; i < 50; i++ {
		wire, err := out.Seal([]byte("p"))
		if err != nil {
			if !errors.Is(err, ErrSeqExhausted) {
				t.Fatalf("Seal %d: %v, want ErrSeqExhausted", i, err)
			}
			break
		}
		sealed++
		lo, _ := ParseSeqLo(wire)
		if seen[lo] {
			t.Fatalf("wire sequence %#x reused", lo)
		}
		seen[lo] = true
	}
	if sealed == 0 || sealed >= 50 {
		t.Fatalf("sealed %d packets, want the boundary inside (0, 50)", sealed)
	}
	// The SA stays dead: every further Seal fails.
	if _, err := out.Seal([]byte("p")); !errors.Is(err, ErrSeqExhausted) {
		t.Errorf("Seal after exhaustion = %v, want ErrSeqExhausted", err)
	}
	// An ESN SA over the same region sails through: the wire half may wrap
	// because the authenticated 64-bit number does not.
	sndESN := seededSender(t, k, math.MaxUint32-2*k-5)
	outESN, err := NewOutboundSA(0x5EEE, testKeys(), sndESN, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := outESN.Seal([]byte("p")); err != nil {
			t.Fatalf("ESN Seal %d across 2^32: %v", i, err)
		}
	}
}

// TestSealConcurrentHardBytes is the lifetime TOCTOU regression: N
// concurrent Seals against a nearly-exhausted HardBytes budget must not all
// pass the stale check. At most one packet may cross the boundary.
func TestSealConcurrentHardBytes(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const (
		goroutines = 8
		perG       = 200
		payload    = 10
		wireLen    = payload + Overhead
	)
	hard := uint64(50 * wireLen) // far fewer than goroutines*perG packets
	snd, _ := newSenderT(t, 1<<20)
	out, err := NewOutboundSA(1, testKeys(), snd, false, Lifetime{HardBytes: hard}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ok, expired atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := out.Seal(make([]byte, payload))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrHardExpired):
					expired.Add(1)
				default:
					t.Errorf("Seal: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	gotBytes, gotPackets := out.Counters()
	if gotBytes > hard+wireLen-1 {
		t.Errorf("bytes = %d overshot HardBytes = %d by more than one packet", gotBytes, hard)
	}
	if gotPackets != ok.Load() {
		t.Errorf("packets = %d, want %d successful seals", gotPackets, ok.Load())
	}
	if expired.Load() == 0 {
		t.Error("no Seal observed ErrHardExpired")
	}
	if out.State() != LifetimeHard {
		t.Errorf("State = %v at exhausted budget, want hard", out.State())
	}
}

// TestSealAppendRoundTripCounters seals 32 packets into one reused buffer and
// opens each twice into another: every first Open delivers its payload,
// every second is a replay, and both SAs' counters say so.
func TestSealAppendRoundTripCounters(t *testing.T) {
	out, in := newPair(t)
	var wires [][]byte
	var wantBytes uint64
	wbuf, pbuf := make([]byte, 0, 128), make([]byte, 0, 128)
	for i := 0; i < 32; i++ {
		payload := []byte(fmt.Sprintf("payload %02d", i))
		var err error
		if wbuf, err = out.SealAppend(wbuf[:0], payload); err != nil {
			t.Fatalf("SealAppend %d: %v", i, err)
		}
		wantBytes += uint64(len(payload)) + Overhead
		wires = append(wires, bytes.Clone(wbuf))
		got, v, err := in.OpenAppend(pbuf[:0], wbuf)
		if err != nil || !v.Delivered() || !bytes.Equal(got, payload) {
			t.Fatalf("OpenAppend %d = (%q, %v, %v), want %q delivered", i, got, v, err, payload)
		}
	}
	// Replaying the whole stream yields only discards, counted as replays.
	for j, wire := range wires {
		got, v, err := in.OpenAppend(pbuf[:0], wire)
		if err != nil || v.Delivered() || len(got) != 0 {
			t.Fatalf("replay %d = (%q, %v, %v), want an empty discard", j, got, v, err)
		}
	}
	_, packets, _, replays := in.Counters()
	if packets != 64 || replays != 32 {
		t.Errorf("counters: packets=%d replays=%d, want 64/32", packets, replays)
	}
	bo, po := out.Counters()
	if po != 32 {
		t.Errorf("outbound packets = %d, want 32", po)
	}
	if bo != wantBytes {
		t.Errorf("outbound bytes = %d, want %d", bo, wantBytes)
	}
}

// TestSealAppendHorizonBackpressure: under StrictHorizon with saves stuck,
// seals stop at the durable horizon with core.ErrSaveLag, the refused seal
// leaves the counters at the packets actually sealed, and the save landing
// lets the next one through.
func TestSealAppendHorizonBackpressure(t *testing.T) {
	var m store.Mem
	held := &core.HeldSaver{Store: &m} // pins the durable horizon until Commit
	snd, err := core.NewSender(core.SenderConfig{K: 10, Store: &m, Saver: held, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewOutboundSA(2, testKeys(), snd, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	for i := 0; i < 20; i++ { // horizon = committed(1) + 2K(20), seq starts at 1
		if buf, err = out.SealAppend(buf[:0], []byte("x")); err != nil {
			t.Fatalf("SealAppend %d below the horizon: %v", i, err)
		}
	}
	if buf, err = out.SealAppend(buf[:0], []byte("x")); !errors.Is(err, core.ErrSaveLag) || len(buf) != 0 {
		t.Fatalf("SealAppend at the horizon = (%d bytes, %v), want (0, ErrSaveLag)", len(buf), err)
	}
	b, p := out.Counters()
	if p != 20 || b != 20*(1+Overhead) {
		t.Errorf("counters after the refused seal: bytes=%d packets=%d, want %d/20", b, p, 20*(1+Overhead))
	}
	held.Commit()
	if _, err = out.SealAppend(buf[:0], []byte("x")); err != nil {
		t.Errorf("SealAppend after the save landed: %v", err)
	}
}

// TestGatewayOpenAppendMixedSPIs interleaves three SAs' packets through one
// pair of reused buffers, then an unknown SPI and a short packet: each
// packet reaches its own SA, and a refused one leaves the buffer empty.
func TestGatewayOpenAppendMixedSPIs(t *testing.T) {
	g := datapathGateway(t, GatewayConfig{K: 25, W: 64})
	const nSAs = 3
	for i := 0; i < nSAs; i++ {
		spi := uint32(0x6000 + i)
		if _, err := g.AddOutbound(spi, testKeys(), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := g.AddInbound(spi, testKeys()); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	wbuf, pbuf := make([]byte, 0, 128), make([]byte, 0, 128)
	for p := 0; p < 8; p++ {
		for i := 0; i < nSAs; i++ {
			payload := []byte(fmt.Sprintf("sa%d pkt%d", i, p))
			src, dst := gwAddr(i)
			var err error
			if wbuf, err = g.SealAppend(wbuf[:0], src, dst, payload); err != nil {
				t.Fatalf("SealAppend sa%d: %v", i, err)
			}
			if spi, _ := ParseSPI(wbuf); spi != uint32(0x6000+i) {
				t.Fatalf("sa%d sealed under SPI %#x", i, spi)
			}
			got, v, err := g.OpenAppend(pbuf[:0], wbuf)
			if err != nil || !v.Delivered() || !bytes.Equal(got, payload) {
				t.Fatalf("OpenAppend sa%d pkt%d = (%q, %v, %v), want %q delivered", i, p, got, v, err, payload)
			}
		}
	}
	unknown := bytes.Clone(wbuf)
	unknown[3] ^= 0x77
	if got, _, err := g.OpenAppend(pbuf[:0], unknown); !errors.Is(err, ErrUnknownSPI) || len(got) != 0 {
		t.Errorf("unknown SPI = (%d bytes, %v), want (0, ErrUnknownSPI)", len(got), err)
	}
	if got, _, err := g.OpenAppend(pbuf[:0], []byte("tiny")); !errors.Is(err, ErrShortPacket) || len(got) != 0 {
		t.Errorf("short packet = (%d bytes, %v), want (0, ErrShortPacket)", len(got), err)
	}
	if payload, _, err := g.Open([]byte("tiny")); !errors.Is(err, ErrShortPacket) || payload != nil {
		t.Errorf("Open(short) = (%v, %v), want (nil, ErrShortPacket)", payload, err)
	}
	if wire, err := g.Seal(netip.Addr{}, netip.Addr{}, []byte("x")); !errors.Is(err, ErrNoPolicy) || wire != nil {
		t.Errorf("Seal(no policy) = (%v, %v), want (nil, ErrNoPolicy)", wire, err)
	}
}

// TestGatewayConcurrentExactlyOnce stress-tests the gateway datapath under
// -race: concurrent sealers over multiple SAs, every sealed wire opened by
// two goroutines at once, exactly-once delivery across the whole run, and
// inbound counters that are exact once the openers quiesce.
func TestGatewayConcurrentExactlyOnce(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	g := datapathGateway(t, GatewayConfig{K: 1024, W: 1024}) // 2K above every SA's 640 packets: no seal meets the horizon
	const (
		nSAs    = 4
		bursts  = 40
		perB    = 16
		senders = 4
	)
	ins := make([]*InboundSA, nSAs)
	for i := range ins {
		spi := uint32(0x7000 + i)
		if _, err := g.AddOutbound(spi, testKeys(), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		var err error
		if ins[i], err = g.AddInbound(spi, testKeys()); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	var delivered sync.Map // payload string -> struct{}
	var sealedBytes atomic.Uint64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			wires := make([][]byte, perB)
			for b := 0; b < bursts; b++ {
				src, dst := gwAddr((s + b) % nSAs)
				for p := range wires {
					var err error
					wires[p], err = g.SealAppend(wires[p][:0], src, dst, []byte(fmt.Sprintf("s%d b%d p%d", s, b, p)))
					if err != nil {
						t.Errorf("SealAppend: %v", err)
						return
					}
					sealedBytes.Add(uint64(len(wires[p])))
				}
				// Open the burst twice concurrently: every payload must be
				// delivered exactly once across both passes.
				var inner sync.WaitGroup
				for v := 0; v < 2; v++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						var buf []byte
						for _, wire := range wires {
							payload, verdict, err := g.OpenAppend(buf[:0], wire)
							if err != nil {
								t.Errorf("OpenAppend: %v", err)
								return
							}
							if verdict.Delivered() {
								if _, dup := delivered.LoadOrStore(string(payload), struct{}{}); dup {
									t.Errorf("payload %q delivered twice", payload)
									return
								}
							}
							buf = payload
						}
					}()
				}
				inner.Wait()
			}
		}(s)
	}
	wg.Wait()
	count := 0
	delivered.Range(func(_, _ any) bool { count++; return true })
	if want := senders * bursts * perB; count != want {
		t.Errorf("delivered %d unique payloads, want %d", count, want)
	}
	// Each wire was opened twice: one delivery and one replay discard.
	var wireBytes, packets, authFails, replays uint64
	for _, in := range ins {
		b, p, a, r := in.Counters()
		wireBytes, packets, authFails, replays = wireBytes+b, packets+p, authFails+a, replays+r
	}
	if want := uint64(2 * senders * bursts * perB); packets != want {
		t.Errorf("packets = %d, want %d", packets, want)
	}
	if want := uint64(senders * bursts * perB); replays != want {
		t.Errorf("replays = %d, want %d", replays, want)
	}
	if want := 2 * sealedBytes.Load(); wireBytes != want {
		t.Errorf("bytes = %d, want %d (twice the sealed wire bytes)", wireBytes, want)
	}
	if authFails != 0 {
		t.Errorf("authFails = %d, want 0", authFails)
	}
}

// TestOpenConcurrentESNBoundary crosses the 2^32 subspace boundary with
// concurrent Opens under -race: the single-snapshot inference plus
// re-inference retry must deliver every packet exactly once even when a
// racing Open moves the edge mid-verification.
func TestOpenConcurrentESNBoundary(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const k = 25
	base := uint64(1)<<32 - 200
	var sm store.Mem
	if err := sm.Save(base); err != nil {
		t.Fatal(err)
	}
	snd, err := core.NewSender(core.SenderConfig{K: k, Store: &sm})
	if err != nil {
		t.Fatal(err)
	}
	snd.Reset()
	snd.Wake()

	var rm store.Mem
	if err := rm.Save(base - k); err != nil {
		t.Fatal(err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: k, Store: &rm, W: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rcv.Reset()
	rcv.Wake()

	out, err := NewOutboundSA(9, testKeys(), snd, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInboundSA(9, testKeys(), rcv, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const total = 900 // crosses 2^32; stays within W so skewed goroutines never go stale
	wires := make([][]byte, total)
	for i := range wires {
		w, err := out.Seal([]byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
		wires[i] = w
	}
	const goroutines = 8
	var delivered sync.Map
	var wg sync.WaitGroup
	for gor := 0; gor < goroutines; gor++ {
		wg.Add(1)
		go func(gor int) {
			defer wg.Done()
			// Each goroutine walks the window-sized stream at an offset, so
			// edges race exactly around the subspace boundary.
			for i := gor; i < total; i += goroutines {
				payload, v, err := in.Open(wires[i])
				if err != nil {
					t.Errorf("Open %d: %v", i, err)
					return
				}
				if v.Delivered() {
					key := [2]byte{payload[0], payload[1]}
					if _, dup := delivered.LoadOrStore(key, struct{}{}); dup {
						t.Errorf("packet %d delivered twice", i)
						return
					}
				}
			}
		}(gor)
	}
	wg.Wait()
	count := 0
	delivered.Range(func(_, _ any) bool { count++; return true })
	if count != total {
		t.Errorf("delivered %d of %d across the boundary", count, total)
	}
	if in.Receiver().Edge() <= 1<<32 {
		t.Errorf("edge %#x did not cross 2^32", in.Receiver().Edge())
	}
}
