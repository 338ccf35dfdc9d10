package adversary

import (
	"testing"

	"antireplay/internal/seqwin"
)

// admitAll replays arrivals into a fresh Bitmap window of width w and
// returns (delivered unique count, duplicate discards, stale discards).
func admitAll(t *testing.T, arrivals [][]byte, w int) (delivered, dups, stale int) {
	t.Helper()
	win := seqwin.NewBitmap(w)
	for _, p := range arrivals {
		s, ok := espSeq(p)
		if !ok {
			t.Fatalf("non-ESP arrival %x", p)
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

// snipeRun sends 1..n through an active window-edge snipe, frees its
// hostages, and returns the campaign and what reached the far end.
func snipeRun(t *testing.T, n uint64) (*WindowEdgeSnipe, [][]byte) {
	t.Helper()
	s := &sink{}
	c := NewWindowEdgeSnipe(NewGate(s.deliver))
	c.Activate()
	for seq := uint64(1); seq <= n; seq++ {
		c.gate.Send(espPacket(seq))
	}
	c.Deactivate()
	return c, s.arrivals()
}

// TestWindowEdgeSnipeWindowWidth is the campaign's core physics: a
// hostage released snipeHoldDepth packets late lands inside the table's
// hardened window (W=256, delivered) and below the edge of its baseline
// one (W=64, silently discarded). The defense knob is the window width.
func TestWindowEdgeSnipeWindowWidth(t *testing.T) {
	const n = 1000
	c, arrivals := snipeRun(t, n)
	if c.Held != n/snipeHoldEvery {
		t.Fatalf("Held=%d, want %d", c.Held, n/snipeHoldEvery)
	}
	if len(arrivals) != n+int(c.Dups) {
		t.Fatalf("arrivals=%d, want %d originals + %d duplicates (holds delay, never destroy)",
			len(arrivals), n, c.Dups)
	}

	// Wide window: every hostage lands inside, nothing is lost.
	delivered, dups, stale := admitAll(t, arrivals, 256)
	if delivered != n || dups != int(c.Dups) || stale != 0 {
		t.Errorf("W=256: delivered=%d dups=%d stale=%d, want %d/%d/0", delivered, dups, stale, n, c.Dups)
	}

	// Narrow window: matured hostages land below the edge and are
	// discarded as stale — goodput lost without a single drop on the wire.
	delivered, dups, stale = admitAll(t, arrivals, 64)
	if stale == 0 {
		t.Errorf("W=64: no stale discards; the snipe should cost goodput")
	}
	if dups != int(c.Dups) || delivered+stale != n {
		t.Errorf("W=64: delivered=%d dups=%d stale=%d, want delivered+stale=%d and %d dups",
			delivered, dups, stale, n, c.Dups)
	}
}

// TestWindowEdgeSnipeDuplicates checks the duplicate injector: a copy of
// every snipeDupEvery-th packet that is not taken hostage, each edge-
// adjacent, and the receiver window rejects every one of them (zero
// replay acceptance) while still delivering the originals.
func TestWindowEdgeSnipeDuplicates(t *testing.T) {
	const n = 500
	c, arrivals := snipeRun(t, n)
	// Multiples of 10 that are not multiples of 16: 50 - 6.
	if c.Dups != 44 {
		t.Fatalf("Dups=%d, want 44", c.Dups)
	}
	for _, w := range []int{64, 256} {
		if _, dups, _ := admitAll(t, arrivals, w); dups != int(c.Dups) {
			t.Errorf("W=%d: window rejected %d duplicates, want %d", w, dups, c.Dups)
		}
	}
}

// TestSaveStormStrikeZone checks, at both SAVE intervals the table runs,
// that the storm drops exactly the strike zone [mK-K/8, mK) while
// attacking and nothing while dormant, and that Parked reports the
// maximal-damage instants.
func TestSaveStormStrikeZone(t *testing.T) {
	for _, k := range []uint64{240, 30} {
		s := &sink{}
		g := NewGate(s.deliver)
		c := NewSaveStorm(g, k)

		// Dormant: the campaign only observes.
		for seq := uint64(1); seq <= k; seq++ {
			g.Send(espPacket(seq))
		}
		if c.Dropped != 0 || len(s.arrivals()) != int(k) {
			t.Fatalf("K=%d dormant: Dropped=%d arrivals=%d, want 0/%d", k, c.Dropped, len(s.arrivals()), k)
		}

		c.Activate()
		var want uint64
		for seq := k + 1; seq <= 3*k; seq++ {
			g.Send(espPacket(seq))
			inZone := seq%k >= k-k/8
			if inZone {
				want++
			}
			if got := c.Parked(); got != inZone {
				t.Fatalf("K=%d seq %d: Parked=%v, want %v", k, seq, got, inZone)
			}
		}
		if c.Dropped != want || want != 2*(k/8) {
			t.Errorf("K=%d: Dropped=%d, want %d (K/8 per K: the cost is bounded)", k, c.Dropped, 2*(k/8))
		}
		if got := len(s.arrivals()); got != 3*int(k)-int(want) {
			t.Errorf("K=%d: arrivals=%d, want %d", k, got, 3*int(k)-int(want))
		}
	}
}

// TestRekeyCutSuppressAndBlackout checks the two timed weapons: exchange
// suppression bounded at rekeyCutSuppress while attacking, and an exact
// rekeyCutBlackout-packet blackout armed by each cutover seen during the
// attack window.
func TestRekeyCutSuppressAndBlackout(t *testing.T) {
	s := &sink{}
	g := NewGate(s.deliver)
	c := NewRekeyCut(g)

	if c.SuppressExchange() {
		t.Fatal("dormant campaign suppressed an exchange")
	}
	c.OnCutover() // dormant: observed, not weaponized
	for seq := uint64(1); seq <= 5; seq++ {
		g.Send(espPacket(seq))
	}
	if c.Blackout != 0 || len(s.arrivals()) != 5 {
		t.Fatalf("dormant: Blackout=%d arrivals=%d, want 0/5", c.Blackout, len(s.arrivals()))
	}

	c.Activate()
	got := 0
	for i := 0; i < 2*rekeyCutSuppress; i++ {
		if c.SuppressExchange() {
			got++
		}
	}
	if got != 6 || c.Suppressed != 6 {
		t.Errorf("suppressed %d exchanges (counted %d), want 6 (suppression is bounded)", got, c.Suppressed)
	}

	c.OnCutover()
	for seq := uint64(100); seq < 160; seq++ {
		g.Send(espPacket(seq))
	}
	if c.Blackout != 48 {
		t.Errorf("Blackout=%d, want 48", c.Blackout)
	}
	if n := len(s.arrivals()) - 5; n != 60-48 {
		t.Errorf("post-cutover arrivals=%d, want %d", n, 60-48)
	}
}

// TestBlackoutFloodRecordsAndFloods checks the record-then-replay shape:
// the decider records passing traffic, and OnTakeover injects the most
// recent floodBurst datagrams only while the attack window is open, none
// of which a receiver window delivers a second time.
func TestBlackoutFloodRecordsAndFloods(t *testing.T) {
	s := &sink{}
	c := NewBlackoutFlood(NewGate(s.deliver))
	const n = 300
	for seq := uint64(1); seq <= n; seq++ {
		c.gate.Send(espPacket(seq))
	}
	if c.Recorded != n {
		t.Fatalf("Recorded=%d, want %d", c.Recorded, n)
	}

	c.OnTakeover() // dormant: no flood
	if got := len(s.arrivals()); got != n {
		t.Fatalf("dormant flood injected: arrivals=%d, want %d", got, n)
	}

	c.Activate()
	c.OnTakeover()
	arrivals := s.arrivals()
	if len(arrivals) != n+floodBurst || c.Flooded != floodBurst {
		t.Fatalf("arrivals=%d Flooded=%d, want %d/%d: the flood is capped at its burst",
			len(arrivals), c.Flooded, n+floodBurst, floodBurst)
	}
	// The flood is the most recent recordings, in capture order.
	for i, p := range arrivals[n:] {
		if seq, _ := espSeq(p); seq != uint64(n-floodBurst+1+i) {
			t.Fatalf("flooded[%d] = seq %d, want %d", i, seq, n-floodBurst+1+i)
		}
	}
	// Injection bypasses the decider: the flood does not re-record itself.
	if c.Recorded != n {
		t.Errorf("flood re-recorded: Recorded=%d, want %d", c.Recorded, n)
	}
	if delivered, _, _ := admitAll(t, arrivals, 64); delivered != n {
		t.Errorf("a W=64 window delivered %d of %d originals + %d replays, want %d: nothing twice",
			delivered, n, floodBurst, n)
	}
}

// TestRecorderTapAndMessages pins BlackoutFlood's recording: its decider
// is the wiretap, so it records every datagram from the start, before the
// attack window opens, in send order, and keeps its own copies, so a
// sender that reuses one buffer does not rewrite what was recorded.
func TestRecorderTapAndMessages(t *testing.T) {
	s := &sink{}
	c := NewBlackoutFlood(NewGate(s.deliver))
	buf := make([]byte, 8)
	for seq := uint64(1); seq <= 3; seq++ {
		putSeq(buf, seq)
		c.gate.Send(buf)
	}
	if c.Recorded != 3 || len(c.recording) != 3 {
		t.Fatalf("Recorded=%d (%d kept), want 3", c.Recorded, len(c.recording))
	}
	for i, p := range c.recording {
		if seq, _ := espSeq(p); seq != uint64(i+1) {
			t.Errorf("recording[%d] = seq %d, want %d", i, seq, i+1)
		}
	}
	c.Activate()
	c.OnTakeover()
	arrivals := s.arrivals()
	if len(arrivals) != 6 {
		t.Fatalf("arrivals=%d, want 3 sent + 3 flooded", len(arrivals))
	}
	for i, p := range arrivals[3:] {
		if seq, _ := espSeq(p); seq != uint64(i+1) {
			t.Errorf("flooded[%d] = seq %d, want %d: the recording is the flood's copy", i, seq, i+1)
		}
	}
}

// TestRecorderConcurrent is the -race check of BlackoutFlood's recording
// decider under concurrent senders that reuse their buffers: it keeps
// every datagram, and its pass verdict delivers each exactly once.
func TestRecorderConcurrent(t *testing.T) {
	s := &sink{}
	c := NewBlackoutFlood(NewGate(s.deliver))
	sendConcurrently(c.gate)
	if c.Recorded != senders*each || len(c.recording) != senders*each {
		t.Fatalf("recorded %d (%d kept), want %d", c.Recorded, len(c.recording), senders*each)
	}
	seen := make(map[uint64]bool)
	for _, p := range c.recording {
		seq, _ := espSeq(p)
		seen[seq] = true
	}
	delivered := make(map[uint64]int)
	for _, p := range s.arrivals() {
		seq, _ := espSeq(p)
		delivered[seq]++
	}
	for seq := uint64(1); seq <= senders*each; seq++ {
		if !seen[seq] || delivered[seq] != 1 {
			t.Fatalf("seq %d recorded=%v delivered %d times, want recorded and delivered once", seq, seen[seq], delivered[seq])
		}
	}
}
