package tunnel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/dpd"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/netsim"
	"antireplay/internal/store"
)

func ikeCfg(seed int64, id string) ike.Config {
	return ike.Config{
		PSK:   []byte("tunnel-test-psk"),
		Rand:  rand.New(rand.NewSource(seed)),
		Group: ike.TestGroup(),
		ID:    id,
	}
}

func directPair(t *testing.T, aCfg, bCfg Config) (*Peer, *Peer) {
	t.Helper()
	a, b, err := Pair(aCfg, bCfg, ikeCfg(1, "a"), ikeCfg(2, "b"), nil, nil)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	return a, b
}

func TestPairDataFlow(t *testing.T) {
	var got []string
	a, b := directPair(t,
		Config{Name: "a", K: 25},
		Config{Name: "b", K: 25, OnData: func(p []byte) { got = append(got, string(p)) }},
	)
	_ = b
	for i := 0; i < 5; i++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if len(got) != 5 || got[0] != "msg-0" || got[4] != "msg-4" {
		t.Errorf("got = %v", got)
	}
}

func TestPairBidirectional(t *testing.T) {
	var fromA, fromB []string
	a, b := directPair(t,
		Config{Name: "a", K: 25, OnData: func(p []byte) { fromB = append(fromB, string(p)) }},
		Config{Name: "b", K: 25, OnData: func(p []byte) { fromA = append(fromA, string(p)) }},
	)
	if err := a.Send([]byte("east->west")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte("west->east")); err != nil {
		t.Fatal(err)
	}
	if len(fromA) != 1 || fromA[0] != "east->west" {
		t.Errorf("fromA = %v", fromA)
	}
	if len(fromB) != 1 || fromB[0] != "west->east" {
		t.Errorf("fromB = %v", fromB)
	}
}

func TestSendWithoutTransport(t *testing.T) {
	p, err := New(Config{Name: "solo", K: 25}, 1, testKeys(), 2, testKeys())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send([]byte("x")); !errors.Is(err, ErrNoTransport) {
		t.Errorf("Send = %v, want ErrNoTransport", err)
	}
}

func testKeys() ipsec.KeyMaterial {
	k := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
	for i := range k.AuthKey {
		k.AuthKey[i] = byte(i + 1)
	}
	return k
}

func TestHostResetWakeResync(t *testing.T) {
	// Full §6 cycle at the host level: b resets, a's monitor declares it
	// dead, b wakes and the automatic resync revives the association.
	engine := netsim.NewEngine(3)
	var monitor *dpd.Monitor

	var delivered []string
	aCfg := Config{Name: "a", K: 25, OnData: func(p []byte) { delivered = append(delivered, string(p)) }}
	bCfg := Config{Name: "b", K: 25}
	a, b, err := Pair(aCfg, bCfg, ikeCfg(5, "a"), ikeCfg(6, "b"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	monitor, err = dpd.NewMonitor(dpd.Config{
		Engine:      engine,
		IdleTimeout: 10 * time.Second,
		AckTimeout:  2 * time.Second,
		MaxProbes:   2,
		HoldTime:    time.Minute,
		SendProbe: func(seq uint64) {
			// a probes through the tunnel; a dead b will not answer.
			wire, err := a.Outbound().Seal(dpd.ProbePayload(seq))
			if err != nil {
				return
			}
			b.Receive(wire) //nolint:errcheck // dead peers drop traffic
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rewire a's monitor into its receive path.
	a.cfg.Monitor = monitor

	// Normal traffic keeps the monitor alive.
	if err := b.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if monitor.State() != dpd.StateAlive {
		t.Fatalf("monitor = %v, want alive", monitor.State())
	}

	// b crashes; the monitor probes and declares it dead.
	b.Reset()
	engine.RunUntil(20 * time.Second)
	if monitor.State() != dpd.StateDead {
		t.Fatalf("monitor = %v, want dead", monitor.State())
	}

	// An adversary replaying b's old packet cannot revive the association:
	// replay the recorded "hello" wire bytes... (the Receive path only
	// notes life on *delivered* traffic). Build the replay from a fresh
	// capture instead: b.Send recorded nothing, so synthesize by sealing
	// before the reset — covered in TestReplayCannotRevive below.

	// b wakes: both halves recover and the resync flows automatically.
	if err := b.Wake(); err != nil {
		t.Fatalf("Wake: %v", err)
	}
	if monitor.State() != dpd.StateAlive {
		t.Fatalf("monitor = %v, want alive after resync", monitor.State())
	}

	// Traffic flows again (post-leap sequence numbers).
	if err := b.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 2 || delivered[1] != "back" {
		t.Errorf("delivered = %v", delivered)
	}
}

func TestReplayCannotRevive(t *testing.T) {
	engine := netsim.NewEngine(4)
	var captured []byte
	aCfg := Config{Name: "a", K: 25}
	bCfg := Config{Name: "b", K: 25}
	// Capture b's traffic on the way to a.
	a, b, err := Pair(aCfg, bCfg, ikeCfg(7, "a"), ikeCfg(8, "b"),
		nil,
		func(wire []byte, deliver func([]byte)) {
			if captured == nil {
				captured = append([]byte(nil), wire...)
			}
			deliver(wire)
		})
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := dpd.NewMonitor(dpd.Config{
		Engine:      engine,
		IdleTimeout: 10 * time.Second,
		AckTimeout:  2 * time.Second,
		MaxProbes:   2,
		HoldTime:    time.Minute,
		SendProbe:   func(uint64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.cfg.Monitor = monitor

	if err := b.Send([]byte("pre-reset")); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no capture")
	}

	b.Reset()
	engine.RunUntil(20 * time.Second)
	if monitor.State() != dpd.StateDead {
		t.Fatalf("monitor = %v, want dead", monitor.State())
	}

	// The adversary replays b's old authentic packet directly into a.
	v, err := a.Receive(captured)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if v.Delivered() {
		t.Fatal("SAFETY: replayed packet delivered")
	}
	if monitor.State() != dpd.StateDead {
		t.Fatal("SAFETY: replay revived a dead association")
	}
}

func TestReceiveRejectsTamper(t *testing.T) {
	a, b := directPair(t, Config{Name: "a", K: 25}, Config{Name: "b", K: 25})
	_ = b
	wire, err := a.Outbound().Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)-1] ^= 1
	if _, err := b.Receive(wire); !errors.Is(err, ipsec.ErrAuth) {
		t.Errorf("Receive(tampered) = %v, want ErrAuth", err)
	}
}

func TestProbeAutoAck(t *testing.T) {
	engine := netsim.NewEngine(9)
	aCfg := Config{Name: "a", K: 25}
	bCfg := Config{Name: "b", K: 25}
	a, _, err := Pair(aCfg, bCfg, ikeCfg(10, "a"), ikeCfg(11, "b"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := dpd.NewMonitor(dpd.Config{
		Engine:      engine,
		IdleTimeout: 10 * time.Second,
		AckTimeout:  2 * time.Second,
		MaxProbes:   3,
		HoldTime:    time.Minute,
		SendProbe: func(seq uint64) {
			_ = a.Send(dpd.ProbePayload(seq)) // through the tunnel
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.cfg.Monitor = monitor

	// No data traffic at all: probes fire, b auto-acks, the monitor keeps
	// returning to alive and the association never dies.
	engine.RunUntil(2 * time.Minute)
	if monitor.State() == dpd.StateDead || monitor.State() == dpd.StateExpired {
		t.Fatalf("monitor = %v; auto-ack should keep the peer alive", monitor.State())
	}
	probes, acks, deaths := monitor.Stats()
	if probes == 0 || acks == 0 {
		t.Errorf("probes=%d acks=%d, want both > 0", probes, acks)
	}
	if deaths != 0 {
		t.Errorf("deaths = %d, want 0", deaths)
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := New(Config{Name: "x"}, 1, testKeys(), 2, testKeys())
	if !errors.Is(err, core.ErrConfig) {
		t.Errorf("New without K = %v, want ErrConfig", err)
	}
}

// ghostStore accepts saves but never returns a value, modelling wiped
// persistent memory.
type ghostStore struct{}

func (ghostStore) Save(uint64) error            { return nil }
func (ghostStore) Fetch() (uint64, bool, error) { return 0, false, nil }

func TestWakeErrorSurfaced(t *testing.T) {
	p, err := New(Config{
		Name:   "x",
		K:      25,
		Stores: func(uint32, string) store.Store { return ghostStore{} },
	}, 1, testKeys(), 2, testKeys())
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if err := p.Wake(); !errors.Is(err, core.ErrNoSavedState) {
		t.Errorf("Wake = %v, want wrapped ErrNoSavedState", err)
	}
}

// TestNewOverUsedCellsWakes restarts a host the way a process does: New
// again, over the cells its prior life used. Both halves must come up
// through the wake on their own — the sender above every number it ever
// used, the receiver delivering nothing it may have delivered before.
func TestNewOverUsedCellsWakes(t *testing.T) {
	const k = 10
	cells := make(map[string]*store.Mem)
	stores := func(spi uint32, dir string) store.Store {
		key := fmt.Sprintf("%s/%d", dir, spi)
		if cells[key] == nil {
			cells[key] = &store.Mem{}
		}
		return cells[key]
	}
	var recorded [][]byte
	boot := func() (a, b *Peer) {
		a, err := New(Config{Name: "a", K: k, Stores: stores}, 1, testKeys(), 2, testKeys())
		if err != nil {
			t.Fatal(err)
		}
		b, err = New(Config{Name: "b", K: k, Stores: stores}, 2, testKeys(), 1, testKeys())
		if err != nil {
			t.Fatal(err)
		}
		a.SetTransport(func(w []byte) {
			recorded = append(recorded, append([]byte(nil), w...))
			b.Receive(w) //nolint:errcheck // verdicts are read from the receiver's stats
		})
		return a, b
	}

	a, b := boot()
	for i := 0; i < 5*k; i++ {
		if err := a.Send([]byte("first life")); err != nil {
			t.Fatal(err)
		}
	}
	used := a.Outbound().Sender().Seq() - 1
	if got := b.in.Receiver().Stats().Delivered; got != 5*k {
		t.Fatalf("first life delivered %d, want %d", got, 5*k)
	}

	firstLife := recorded
	a2, b2 := boot()
	if snd, rcv := a2.Outbound().Sender(), b2.in.Receiver(); snd.State() != core.StateUp || rcv.State() != core.StateUp {
		t.Fatalf("after restart: sender %v (%v), receiver %v (%v), want both up",
			snd.State(), snd.LastWakeError(), rcv.State(), rcv.LastWakeError())
	}
	for i, w := range firstLife {
		// Far enough below the leaped edge, ESN inference rejects the replay
		// before the window sees it; either way it must not be delivered.
		if v, _ := b2.Receive(w); v.Delivered() {
			t.Fatalf("SAFETY: replay of first-life packet %d delivered after restart (%v)", i, v)
		}
	}
	if got := b2.in.Receiver().Stats().Delivered; got != 0 {
		t.Fatalf("SAFETY: restarted receiver delivered %d replays", got)
	}
	if first := a2.Outbound().Sender().Seq(); first <= used {
		t.Fatalf("SAFETY: restarted sender would hand out %d, at or below the %d already used", first, used)
	}
	if err := a2.Send([]byte("second life")); err != nil {
		t.Fatalf("Send after restart: %v", err)
	}
}
