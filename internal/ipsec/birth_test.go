package ipsec

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
	"antireplay/internal/storefault"
	"antireplay/internal/watchdog"
)

// birthGateway is a gateway over a fresh medium in dir with fsync on; the
// medium, pool and gateway close at cleanup.
func birthGateway(t *testing.T, dir string, opts ...store.LanesOption) (*Gateway, *store.Lanes) {
	t.Helper()
	l, err := store.OpenLanes(dir, opts...)
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	pool := store.NewSaverPool(2)
	g, err := NewGateway(GatewayConfig{Journal: l, Pool: pool, W: 64})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	t.Cleanup(func() { pool.Close(); g.Close() })
	return g, l
}

// addPair installs the outbound and inbound SA of spi with flow i.
func addPair(t *testing.T, g *Gateway, spi uint32, i int) (*OutboundSA, *InboundSA) {
	t.Helper()
	out, err := g.AddOutbound(spi, testKeys(), gwSelector(i))
	if err != nil {
		t.Fatalf("AddOutbound %#x: %v", spi, err)
	}
	in, err := g.AddInbound(spi, testKeys())
	if err != nil {
		t.Fatalf("AddInbound %#x: %v", spi, err)
	}
	return out, in
}

// TestGatewayBirthsShareLaneCommits: N sequential installs over L lanes stage
// their births, and the first packets make them durable one lane commit at a
// time: from the first install to the last delivery of one packet per SA
// the medium pays at most 2L fsyncs, where one synchronous save per install
// paid 2N.
func TestGatewayBirthsShareLaneCommits(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const lanes, pairs = 8, 128
	g, l := birthGateway(t, t.TempDir(), store.LanesCount(lanes))
	before := l.Syncs()
	for i := 0; i < pairs; i++ {
		addPair(t, g, uint32(0x7000+i), i)
	}
	installs := l.Syncs() - before
	for i := 0; i < pairs; i++ {
		src, dst := gwAddr(i)
		if _, v := gwOpen(t, g, gwSeal(t, g, src, dst, []byte("first"))); !v.Delivered() {
			t.Fatalf("pair %d: first packet %v, want delivered", i, v)
		}
	}
	got := l.Syncs() - before
	t.Logf("%d pairs over %d lanes: %d fsyncs at install, %d by the last delivery", pairs, lanes, installs, got)
	if got > 2*lanes {
		t.Errorf("%d installs and first packets cost %d fsyncs, want at most %d", 2*pairs, got, 2*lanes)
	}
}

// TestGatewayBirthCrashBeforeFirstUse: a crash between install and first
// packet loses the staged birth, and that is safe: the cell is empty, so the
// re-added SA is born up at 1 — nothing was sealed. Once one packet has been
// sealed the birth is durable, and the re-added SA is born down and resumes
// at 1 + 2K after WakeAll.
func TestGatewayBirthCrashBeforeFirstUse(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const spi = 0xb17
	dir := filepath.Join(t.TempDir(), "live")
	g, _ := birthGateway(t, dir, store.LanesCount(1))
	addPair(t, g, spi, 1)
	src, dst := gwAddr(1)

	// crash reopens a copy of the live medium, taken while it is still open
	// (what a power cut would leave on disk), checks that it holds the birth
	// records or not, and re-adds the pair.
	crash := func(name string, durable bool) (*Gateway, *OutboundSA, *InboundSA) {
		t.Helper()
		copyDir := filepath.Join(t.TempDir(), name)
		if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		g2, l2 := birthGateway(t, copyDir)
		for _, key := range []string{OutboundKey(spi), InboundKey(spi)} {
			if v, ok, err := l2.Cell(key).Fetch(); err != nil || ok != durable {
				t.Fatalf("%s: %s = %d (held %v, %v), want held %v", name, key, v, ok, err, durable)
			}
		}
		out, in := addPair(t, g2, spi, 1)
		return g2, out, in
	}

	g2, out, in := crash("before-first-use", false)
	if out.Sender().State() != core.StateUp || in.Receiver().State() != core.StateUp {
		t.Fatalf("re-added over a lost birth: %v/%v, want born up", out.Sender().State(), in.Receiver().State())
	}
	w := gwSeal(t, g2, src, dst, []byte("p"))
	if seq, _ := ParseSeqLo(w); seq != 1 {
		t.Errorf("first number after a crash before first use = %d, want 1", seq)
	}
	if _, v := gwOpen(t, g2, w); !v.Delivered() {
		t.Errorf("first packet after a crash before first use: %v, want delivered", v)
	}

	old := gwSeal(t, g, src, dst, []byte("p"))
	g3, _, _ := crash("after-one-seal", true) // born down, until WakeAll leaps
	if err := g3.WakeAll(); err != nil {
		t.Fatalf("WakeAll: %v", err)
	}
	w = gwSeal(t, g3, src, dst, []byte("p"))
	if seq, _ := ParseSeqLo(w); seq < 1+2*DefaultGatewayK {
		t.Errorf("first number after the wake = %d, want >= %d", seq, 1+2*DefaultGatewayK)
	}
	if _, v := gwOpen(t, g3, old); v.Delivered() {
		t.Errorf("the packet sealed before the crash was delivered after it (%v)", v)
	}
}

// TestGatewayBirthConcurrentFirstUse: eight goroutines make the first Seal
// of one just-installed SA at once, then eight make its peer's first Opens,
// every wire from every goroutine. Each medium's sync follower holds the
// birth until the test acknowledges it: nothing is sealed or opened before
// then, the eight numbers are distinct, and each is delivered exactly once.
func TestGatewayBirthConcurrentFirstUse(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const n, spi = 8, 0xc0c0
	// held returns a gateway whose one lane has a sync follower attached,
	// and the step that acknowledges everything staged so far.
	held := func() (*Gateway, *atomic.Bool, func()) {
		g, l := birthGateway(t, t.TempDir(), store.LanesCount(1))
		tl, err := l.LaneJournals()[0].Follow()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tl.Close) // before the gateway's: Close must not wait on acks
		var acked atomic.Bool
		return g, &acked, func() {
			time.Sleep(20 * time.Millisecond)
			_, next, err := tl.Snapshot()
			if err != nil {
				t.Error(err)
			}
			acked.Store(true)
			tl.Ack(next)
		}
	}
	ga, ackedA, ackA := held()
	gb, ackedB, ackB := held()
	if _, err := ga.AddOutbound(spi, testKeys(), gwSelector(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := gb.AddInbound(spi, testKeys()); err != nil {
		t.Fatal(err)
	}
	src, dst := gwAddr(1)

	var wg sync.WaitGroup
	wires := make([][]byte, n)
	for i := range wires {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := ga.Seal(src, dst, []byte("first"))
			if !ackedA.Load() {
				t.Error("a Seal returned before the birth was acknowledged")
			}
			if err != nil {
				t.Errorf("Seal: %v", err)
			}
			wires[i] = w
		}()
	}
	ackA()
	wg.Wait()
	if t.Failed() {
		return
	}

	var mu sync.Mutex
	delivered := make(map[uint32]int)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range wires {
				w := wires[(g+i)%n]
				_, v, err := gb.Open(w)
				if !ackedB.Load() {
					t.Error("an Open returned before the birth was acknowledged")
				}
				if err != nil || v == core.VerdictHorizon {
					t.Errorf("Open: %v, %v", v, err)
				}
				if v.Delivered() {
					seq, _ := ParseSeqLo(w)
					mu.Lock()
					delivered[seq]++
					mu.Unlock()
				}
			}
		}()
	}
	ackB()
	wg.Wait()
	for seq := uint32(1); seq <= n; seq++ {
		if delivered[seq] != 1 {
			t.Errorf("sequence %d delivered %d times, want once", seq, delivered[seq])
		}
	}
	if len(delivered) != n {
		t.Errorf("delivered %v, want 1..%d once each", delivered, n)
	}
}

// TestGatewayBirthPoison: a lane poisoned before install fails AddOutbound at
// Stage; a birth whose commit fails its fsync fails the first Seal with the
// lane's error and discards the first Open at the horizon, handing out and
// delivering nothing.
func TestGatewayBirthPoison(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	t.Run("before-install", func(t *testing.T) {
		in := storefault.NewInjector(nil)
		g, l := birthGateway(t, t.TempDir(), store.LanesCount(1), store.LanesWithFS(in))
		in.Arm(storefault.Fault{Op: storefault.OpWrite, Err: syscall.EIO, Count: 1})
		if err := l.Cell("probe").Save(1); !errors.Is(err, syscall.EIO) {
			t.Fatalf("probe save: %v, want EIO", err)
		}
		if _, err := g.AddOutbound(0x1, testKeys(), gwSelector(1)); !errors.Is(err, syscall.EIO) {
			t.Fatalf("AddOutbound on a poisoned lane: %v, want the lane's EIO", err)
		}
	})
	t.Run("birth-commit", func(t *testing.T) {
		const spi = 0x2
		in := storefault.NewInjector(nil)
		g, _ := birthGateway(t, t.TempDir(), store.LanesCount(1), store.LanesWithFS(in))
		out, rcv := addPair(t, g, spi, 1)
		in.Arm(storefault.Fault{Op: storefault.OpSync, Err: syscall.EIO, Count: 1})
		src, dst := gwAddr(1)
		if _, err := g.Seal(src, dst, []byte("p")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("first Seal over a failed birth commit: %v, want the lane's EIO", err)
		}
		if next := out.Sender().Seq(); next != 1 {
			t.Errorf("sender moved to %d, want 1: nothing handed out", next)
		}
		// The wire comes from a twin SA the medium does not back.
		snd, err := core.NewSender(core.SenderConfig{K: 5, Store: &store.Mem{}})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewOutboundSA(spi, testKeys(), snd, false, Lifetime{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, err := twin.Seal([]byte("p"))
		if err != nil {
			t.Fatal(err)
		}
		if _, v, err := g.Open(w); v != core.VerdictHorizon || err != nil {
			t.Errorf("first Open over a failed birth commit: %v, %v; want horizon", v, err)
		}
		if rcv.Receiver().Edge() != 0 || rcv.Receiver().Stats().Delivered != 0 {
			t.Errorf("receiver at edge %d, delivered %d; want nothing delivered", rcv.Receiver().Edge(), rcv.Receiver().Stats().Delivered)
		}
	})
}

// TestGatewayBadKeysLeaveNoBirth: an install refused for its keys touches
// no cell, on all four paths, so a retry with good keys is a first life —
// up at 1 (or 0) — not a reset over a record nothing ever used.
func TestGatewayBadKeysLeaveNoBirth(t *testing.T) {
	bad := KeyMaterial{AuthKey: []byte{1, 2, 3}}
	g, l := birthGateway(t, t.TempDir(), store.LanesCount(1))
	addPair(t, g, 0x10, 1)
	out := func() core.State { sa, _ := g.Outbound(0x1234); return sa.Sender().State() }
	in := func() core.State { sa, _ := g.SAD().Lookup(0x1234); return sa.Receiver().State() }
	outNext := func() core.State { sa, _ := g.Outbound(0x11); return sa.Sender().State() }
	inNext := func() core.State { sa, _ := g.SAD().Lookup(0x11); return sa.Receiver().State() }
	install := []struct {
		name  string
		key   string
		add   func(KeyMaterial) error
		state func() core.State
	}{
		{"AddOutbound", OutboundKey(0x1234), func(k KeyMaterial) error {
			_, err := g.AddOutbound(0x1234, k, gwSelector(2))
			return err
		}, out},
		{"AddInbound", InboundKey(0x1234), func(k KeyMaterial) error {
			_, err := g.AddInbound(0x1234, k)
			return err
		}, in},
		{"RekeyOutbound", OutboundKey(0x11), func(k KeyMaterial) error {
			_, err := g.RekeyOutbound(0x10, 0x11, k)
			return err
		}, outNext},
		{"RekeyInbound", InboundKey(0x11), func(k KeyMaterial) error {
			_, err := g.RekeyInbound(0x10, 0x11, k)
			return err
		}, inNext},
	}
	for _, tc := range install {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.add(bad); err == nil {
				t.Fatal("install with a 3-byte auth key succeeded")
			}
			if v, ok, _ := l.Cell(tc.key).Fetch(); ok {
				t.Fatalf("refused install left %s = %d in the journal", tc.key, v)
			}
			if err := tc.add(testKeys()); err != nil {
				t.Fatalf("retry with good keys: %v", err)
			}
			if st := tc.state(); st != core.StateUp {
				t.Fatalf("retry born %v, want up: a first life", st)
			}
		})
	}
	src, dst := gwAddr(2)
	if seq, _ := ParseSeqLo(gwSeal(t, g, src, dst, []byte("p"))); seq != 1 {
		t.Errorf("first number of the retried SA = %d, want 1", seq)
	}
}
