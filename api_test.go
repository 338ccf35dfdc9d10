package antireplay_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"antireplay"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// journalPair opens the one-lane medium at dir and builds the quick start's
// pair on it: keys "tx" and "rx", one pool (zero workers means none, so saves
// are synchronous). A restart is closing it and calling this again.
func journalPair(t *testing.T, dir string, k uint64, w, workers int) (*antireplay.Sender, *antireplay.Receiver, func()) {
	t.Helper()
	j, err := antireplay.NewLanes(dir, antireplay.LanesCount(1))
	if err != nil {
		t.Fatalf("NewLanes: %v", err)
	}
	var pool *antireplay.SaverPool
	if workers > 0 {
		pool = antireplay.NewSaverPool(workers)
	}
	snd, err := antireplay.NewJournalSender(j, "tx", k, pool)
	if err != nil {
		t.Fatalf("NewJournalSender: %v", err)
	}
	rcv, err := antireplay.NewJournalReceiver(j, "rx", k, w, pool)
	if err != nil {
		t.Fatalf("NewJournalReceiver: %v", err)
	}
	return snd, rcv, func() {
		if pool != nil {
			pool.Close() // wait for in-flight saves
		}
		if err := j.Close(); err != nil {
			t.Errorf("Lanes.Close: %v", err)
		}
	}
}

// nextSeq and admitSeq retry through the strict horizon's bounded
// backpressure (ErrSaveLag, VerdictHorizon) while a pooled save catches up.
func nextSeq(t *testing.T, snd *antireplay.Sender) uint64 {
	t.Helper()
	for {
		seq, err := snd.Next()
		if err == nil {
			return seq
		}
		if !errors.Is(err, antireplay.ErrSaveLag) {
			t.Fatalf("Next: %v", err)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func admitSeq(rcv *antireplay.Receiver, seq uint64) antireplay.Verdict {
	for {
		if v := rcv.Admit(seq); v != antireplay.VerdictHorizon {
			return v
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestJournalSyncSaveRoundTrip: the pair with no pool saves synchronously,
// so the horizon never lags and every number is delivered first time.
func TestJournalSyncSaveRoundTrip(t *testing.T) {
	snd, rcv, closePair := journalPair(t, t.TempDir(), 25, 64, 0)
	defer closePair()

	for i := 0; i < 100; i++ {
		seq, err := snd.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if v := rcv.Admit(seq); !v.Delivered() {
			t.Fatalf("Admit(%d) = %v", seq, v)
		}
	}
	if got := rcv.Stats().Delivered; got != 100 {
		t.Errorf("delivered = %d, want 100", got)
	}
}

func TestJournalEndpointsSurviveRestart(t *testing.T) {
	// Full process-restart simulation: pool and medium closed, the directory
	// reopened, new Sender/Receiver values over it, as a rebooted host would
	// create.
	dir := t.TempDir()
	snd, rcv, closePair := journalPair(t, dir, 10, 64, 1)
	var history []uint64
	for i := 0; i < 50; i++ {
		seq := nextSeq(t, snd)
		history = append(history, seq)
		admitSeq(rcv, seq)
	}
	closePair() // flush background saves, then "crash" both processes

	// A restart is the constructors again and nothing else: they find the
	// cells used and come up through FETCH + leap + SAVE on their own.
	snd2, rcv2, closePair2 := journalPair(t, dir, 10, 64, 1)
	defer closePair2()

	// No replayed old message is accepted by the revived receiver.
	for _, seq := range history {
		if v := rcv2.Admit(seq); v.Delivered() {
			t.Fatalf("SAFETY: replay of %d delivered after restart", seq)
		}
	}
	// The revived sender never reuses a number.
	seq, err := snd2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if seq <= history[len(history)-1] {
		t.Fatalf("SAFETY: first seq %d after restart not above pre-crash %d", seq, history[len(history)-1])
	}
}

// TestLiveGoroutinePipeline runs sender and receiver on real goroutines
// connected by a channel, with a concurrent reset/wake of the receiver
// mid-stream — the "goroutines as protocol nodes" execution mode.
func TestLiveGoroutinePipeline(t *testing.T) {
	snd, rcv, closePair := journalPair(t, t.TempDir(), 25, 128, 1)
	defer closePair()

	const total = 5000
	wire := make(chan uint64, 64)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // sender node
		defer wg.Done()
		defer close(wire)
		sent := 0
		for sent < total {
			seq, err := snd.Next()
			if errors.Is(err, antireplay.ErrSaveLag) {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if err != nil {
				t.Errorf("Next: %v", err)
				return
			}
			wire <- seq
			sent++
		}
	}()

	var mu sync.Mutex
	delivered := make(map[uint64]int)
	wg.Add(1)
	go func() { // receiver node
		defer wg.Done()
		for seq := range wire {
			v := rcv.Admit(seq)
			if v.Delivered() {
				mu.Lock()
				delivered[seq]++
				mu.Unlock()
			}
		}
	}()

	// Chaos: reset the receiver twice mid-stream.
	for i := 0; i < 2; i++ {
		time.Sleep(20 * time.Millisecond)
		rcv.Reset()
		time.Sleep(5 * time.Millisecond)
		rcv.Wake()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	dups := 0
	for seq, n := range delivered {
		if n > 1 {
			t.Errorf("SAFETY: seq %d delivered %d times", seq, n)
			dups++
		}
	}
	if len(delivered) == 0 {
		t.Fatal("nothing delivered")
	}
	// Each reset may sacrifice at most 2K fresh + what arrived while down.
	t.Logf("delivered %d of %d across two receiver resets (dups=%d)",
		len(delivered), total, dups)
}

func TestPublicESPPath(t *testing.T) {
	// IKE-negotiated keys driving ESP through the public API.
	res, err := antireplay.EstablishSA(
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: testRand(1), ID: "east"},
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: testRand(2), ID: "west"},
	)
	if err != nil {
		t.Fatal(err)
	}
	var txStore, rxStore antireplay.MemStore
	snd, err := antireplay.NewSender(antireplay.SenderConfig{K: 25, Store: &txStore})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 25, W: 64, Store: &rxStore})
	if err != nil {
		t.Fatal(err)
	}
	out, err := antireplay.NewOutboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, snd, false, antireplay.Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := antireplay.NewInboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, rcv, true, antireplay.Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	wire, err := out.Seal([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	payload, v, err := in.Open(wire)
	if err != nil || !v.Delivered() || string(payload) != "hello" {
		t.Fatalf("Open = %q %v %v", payload, v, err)
	}
	// Replay rejected.
	if _, v, _ := in.Open(wire); v.Delivered() {
		t.Fatal("SAFETY: replay delivered")
	}
}

func TestPublicSimTypes(t *testing.T) {
	e := antireplay.NewEngine(1)
	got := 0
	link := antireplay.NewLink[int](e, antireplay.LinkConfig{Delay: time.Millisecond}, func(int) { got++ })
	link.Send(1)
	link.Send(2)
	e.Run()
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}

	var st antireplay.MemStore
	sv := antireplay.NewSimSaver(e, &st, time.Millisecond)
	sv.StartSave(9, nil)
	e.Run()
	if v, ok := st.Peek(); !ok || v != 9 {
		t.Errorf("Peek = %d %v", v, ok)
	}
}

func TestPublicDPD(t *testing.T) {
	e := antireplay.NewEngine(1)
	probes := 0
	mon, err := antireplay.NewDPDMonitor(antireplay.DPDConfig{
		Engine:      e,
		IdleTimeout: time.Second,
		AckTimeout:  time.Second,
		MaxProbes:   2,
		HoldTime:    time.Minute,
		SendProbe:   func(uint64) { probes++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(10 * time.Second)
	if mon.State() != antireplay.PeerDead {
		t.Errorf("state = %v, want dead", mon.State())
	}
	if probes != 2 {
		t.Errorf("probes = %d, want 2", probes)
	}
	kind, _, ok := antireplay.ParseDPDPayload(antireplay.ResyncPayload())
	if !ok || kind != "resync" {
		t.Errorf("resync parse = %q %v", kind, ok)
	}
}

func TestLeapHelper(t *testing.T) {
	if got := antireplay.Leap(25, antireplay.DefaultLeapFactor); got != 50 {
		t.Errorf("Leap = %d, want 50", got)
	}
}

func TestWindowHelpers(t *testing.T) {
	var w antireplay.Window = antireplay.NewAtomicWindow(64)
	if d := w.Admit(5); !d.Deliver() {
		t.Errorf("Admit(5) = %v", d)
	}
	if d := w.Admit(5); d.Deliver() {
		t.Error("duplicate delivered")
	}
}
