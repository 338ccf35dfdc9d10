package adversary

import (
	"encoding/binary"
	"sync"
	"testing"

	"antireplay/internal/seqwin"
	"antireplay/internal/wire"
)

// sinkLink is a minimal wire.Link that collects everything sent through
// it, in arrival order — the "receiver side of the wire" for campaign
// physics tests that want to replay arrivals into an anti-replay window.
type sinkLink struct {
	mu   sync.Mutex
	sent [][]byte
}

func (s *sinkLink) Send(p []byte) error {
	s.mu.Lock()
	s.sent = append(s.sent, append([]byte(nil), p...))
	s.mu.Unlock()
	return nil
}

func (s *sinkLink) Recv() ([]byte, error) { return nil, wire.ErrNoDatagram }
func (s *sinkLink) Close() error          { return nil }
func (s *sinkLink) Stats() wire.Stats     { return wire.Stats{} }

func (s *sinkLink) arrivals() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.sent...)
}

// rawSeq is the test's stand-in for ESPSeq: the datagram is just an
// 8-byte big-endian counter.
func rawSeq(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(p), true
}

func seqPacket(s uint64) []byte {
	p := make([]byte, 8)
	binary.BigEndian.PutUint64(p, s)
	return p
}

// admitAll replays arrivals into a fresh Bitmap window of width w and
// returns (delivered unique count, duplicate discards, stale discards).
func admitAll(t *testing.T, arrivals [][]byte, w int) (delivered, dups, stale int) {
	t.Helper()
	win := seqwin.NewBitmap(w)
	for _, p := range arrivals {
		s, ok := rawSeq(p)
		if !ok {
			t.Fatalf("non-seq arrival %x", p)
		}
		switch d := win.Admit(s); d {
		case seqwin.DecisionNew, seqwin.DecisionInWindow:
			delivered++
		case seqwin.DecisionDuplicate:
			dups++
		case seqwin.DecisionStale:
			stale++
		default:
			t.Fatalf("seq %d: unexpected decision %v", s, d)
		}
	}
	return delivered, dups, stale
}

// TestWindowEdgeSnipeWindowWidth is the campaign's core physics: a
// hostage released HoldDepth packets late lands inside a window wider
// than HoldDepth (delivered) and below the edge of a narrower one
// (silently discarded). The defense knob is the window width.
func TestWindowEdgeSnipeWindowWidth(t *testing.T) {
	const n = 1000
	run := func() (*WindowEdgeSnipe, [][]byte) {
		sink := &sinkLink{}
		gate := wire.NewGateLink(sink)
		c := NewWindowEdgeSnipe(SnipeConfig{SeqOf: rawSeq, HoldEvery: 16, HoldDepth: 96})
		if err := c.Arm(Hooks{Gate: gate}); err != nil {
			t.Fatal(err)
		}
		c.Activate()
		for s := uint64(1); s <= n; s++ {
			if err := gate.Send(seqPacket(s)); err != nil {
				t.Fatal(err)
			}
		}
		c.Deactivate() // frees remaining hostages
		return c, sink.arrivals()
	}

	c, arrivals := run()
	st := c.Stats()
	if st.Observed != n || st.Edge != n {
		t.Fatalf("Observed=%d Edge=%d, want %d", st.Observed, st.Edge, n)
	}
	if st.Held == 0 || st.Held != st.Released {
		t.Fatalf("Held=%d Released=%d: every hostage must be freed", st.Held, st.Released)
	}
	if len(arrivals) != n {
		t.Fatalf("arrivals=%d, want %d (holds delay, never destroy)", len(arrivals), n)
	}

	// Wide window: every hostage lands inside, nothing is lost.
	delivered, dups, stale := admitAll(t, arrivals, 128)
	if delivered != n || dups != 0 || stale != 0 {
		t.Errorf("w=128: delivered=%d dups=%d stale=%d, want %d/0/0", delivered, dups, stale, n)
	}

	// Narrow window: matured hostages land below the edge and are
	// discarded as stale — goodput lost without a single drop on the wire.
	_, arrivals = run()
	delivered, dups, stale = admitAll(t, arrivals, 64)
	if stale == 0 {
		t.Errorf("w=64: no stale discards; the snipe should cost goodput")
	}
	if dups != 0 {
		t.Errorf("w=64: dups=%d, want 0", dups)
	}
	if delivered+stale != n {
		t.Errorf("w=64: delivered+stale = %d+%d, want %d", delivered, stale, n)
	}
}

// TestWindowEdgeSnipeDuplicates checks the dup injector: every injected
// copy is edge-adjacent, and the receiver window must reject all of them
// (zero replay acceptance) while still delivering the originals.
func TestWindowEdgeSnipeDuplicates(t *testing.T) {
	const n = 500
	sink := &sinkLink{}
	gate := wire.NewGateLink(sink)
	c := NewWindowEdgeSnipe(SnipeConfig{SeqOf: rawSeq, HoldEvery: 1 << 30, DupEvery: 10})
	if err := c.Arm(Hooks{Gate: gate}); err != nil {
		t.Fatal(err)
	}
	c.Activate()
	for s := uint64(1); s <= n; s++ {
		if err := gate.Send(seqPacket(s)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.DupsInjected != n/10 {
		t.Fatalf("DupsInjected=%d, want %d", st.DupsInjected, n/10)
	}
	arrivals := sink.arrivals()
	if len(arrivals) != n+n/10 {
		t.Fatalf("arrivals=%d, want %d", len(arrivals), n+n/10)
	}
	delivered, dups, stale := admitAll(t, arrivals, 64)
	if delivered != n || stale != 0 {
		t.Errorf("delivered=%d stale=%d, want %d/0", delivered, stale, n)
	}
	if dups != n/10 {
		t.Errorf("window rejected %d duplicates, want %d", dups, n/10)
	}
}

// TestSaveStormStrikeZone checks the storm drops exactly the strike zone
// [mK-BurstLen, mK) while attacking, nothing while dormant, and that
// Parked reports the maximal-damage instants.
func TestSaveStormStrikeZone(t *testing.T) {
	c, err := NewSaveStorm(StormConfig{SeqOf: rawSeq, K: 100, BurstLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkLink{}
	gate := wire.NewGateLink(sink)
	if err := c.Arm(Hooks{Gate: gate}); err != nil {
		t.Fatal(err)
	}

	// Dormant: the armed campaign only observes.
	for s := uint64(1); s <= 100; s++ {
		if err := gate.Send(seqPacket(s)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Dropped != 0 || st.Observed != 100 {
		t.Fatalf("dormant: Dropped=%d Observed=%d, want 0/100", st.Dropped, st.Observed)
	}

	c.Activate()
	var wantDropped uint64
	for s := uint64(101); s <= 300; s++ {
		if err := gate.Send(seqPacket(s)); err != nil {
			t.Fatal(err)
		}
		inZone := s%100 >= 92
		if inZone {
			wantDropped++
		}
		if got := c.Parked(); got != inZone {
			t.Fatalf("seq %d: Parked=%v, want %v", s, got, inZone)
		}
	}
	st := c.Stats()
	if st.Dropped != wantDropped {
		t.Errorf("Dropped=%d, want %d", st.Dropped, wantDropped)
	}
	if got := len(sink.arrivals()); got != 300-int(wantDropped) {
		t.Errorf("arrivals=%d, want %d", got, 300-int(wantDropped))
	}

	// Config validation: K is required, BurstLen must stay stealthy.
	if _, err := NewSaveStorm(StormConfig{}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewSaveStorm(StormConfig{K: 8, BurstLen: 8}); err == nil {
		t.Error("BurstLen >= K accepted")
	}
}

// TestRekeyCutSuppressAndBlackout checks the two timed weapons: bounded
// exchange suppression while attacking, and a packet blackout armed by
// each cutover observed during the attack window.
func TestRekeyCutSuppressAndBlackout(t *testing.T) {
	c := NewRekeyCut(RekeyCutConfig{SuppressExchanges: 3, BlackoutPackets: 4})
	sink := &sinkLink{}
	gate := wire.NewGateLink(sink)
	if err := c.Arm(Hooks{Gate: gate}); err != nil {
		t.Fatal(err)
	}

	if c.SuppressExchange() {
		t.Fatal("dormant campaign suppressed an exchange")
	}
	c.OnCutover() // dormant: observed, not weaponized
	for i := 0; i < 5; i++ {
		if err := gate.Send(seqPacket(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Cutovers != 1 || st.BlackoutDrops != 0 {
		t.Fatalf("dormant: Cutovers=%d BlackoutDrops=%d, want 1/0", st.Cutovers, st.BlackoutDrops)
	}

	c.Activate()
	got := 0
	for i := 0; i < 10; i++ {
		if c.SuppressExchange() {
			got++
		}
	}
	if got != 3 {
		t.Errorf("suppressed %d exchanges, want 3 (suppression is bounded)", got)
	}

	before := len(sink.arrivals())
	c.OnCutover()
	for i := 0; i < 10; i++ {
		if err := gate.Send(seqPacket(uint64(100 + i))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.BlackoutDrops != 4 {
		t.Errorf("BlackoutDrops=%d, want 4", st.BlackoutDrops)
	}
	if gotN := len(sink.arrivals()) - before; gotN != 6 {
		t.Errorf("post-cutover arrivals=%d, want 6", gotN)
	}
}

// TestBlackoutFloodRecordsAndFloods checks the record-then-replay shape:
// the wiretap captures passing traffic, and OnTakeover injects the most
// recent MaxBurst datagrams only while the attack window is open.
func TestBlackoutFloodRecordsAndFloods(t *testing.T) {
	c := NewBlackoutFlood(BlackoutFloodConfig{MaxBurst: 5})
	sink := &sinkLink{}
	gate := wire.NewGateLink(sink)
	if err := c.Arm(Hooks{Gate: gate}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for s := uint64(1); s <= n; s++ {
		if err := gate.Send(seqPacket(s)); err != nil {
			t.Fatal(err)
		}
	}
	if c.rec.Len() != n {
		t.Fatalf("Recorded=%d, want %d", c.rec.Len(), n)
	}

	c.OnTakeover(1) // dormant: no flood
	if got := len(sink.arrivals()); got != n {
		t.Fatalf("dormant flood injected: arrivals=%d, want %d", got, n)
	}

	c.Activate()
	c.OnTakeover(2)
	arrivals := sink.arrivals()
	if len(arrivals) != n+5 {
		t.Fatalf("arrivals=%d, want %d", len(arrivals), n+5)
	}
	// The flood is the most recent 5 recordings, in capture order.
	for i, p := range arrivals[n:] {
		want := uint64(n - 5 + 1 + i)
		if s, _ := rawSeq(p); s != want {
			t.Errorf("flooded[%d] = seq %d, want %d", i, s, want)
		}
	}
	// Injection bypasses the wiretap: the flood must not re-record itself.
	if c.rec.Len() != n {
		t.Errorf("flood re-recorded: Recorded=%d, want %d", c.rec.Len(), n)
	}
	st := c.Stats()
	if st.Floods != 1 || st.Flooded != 5 {
		t.Errorf("Floods=%d Flooded=%d, want 1/5", st.Floods, st.Flooded)
	}
}
