package apn

import (
	"math/rand"
	"testing"
)

func TestPaperSenderBaselineStream(t *testing.T) {
	p := NewPaperSender(0, false)
	for want := uint64(1); want <= 5; want++ {
		s, ok := p.Send()
		if !ok || s != want {
			t.Fatalf("Send = %d %v, want seq %d", s, ok, want)
		}
	}
	if p.S != 6 {
		t.Errorf("S = %d, want 6", p.S)
	}
}

func TestPaperSenderBaselineResetForgets(t *testing.T) {
	p := NewPaperSender(0, false)
	for i := 0; i < 10; i++ {
		p.Send()
	}
	p.Reset()
	if !p.Wait {
		t.Fatal("Wait = false after reset")
	}
	if _, ok := p.Send(); ok {
		t.Fatal("send while down is enabled, want its guard false")
	}
	if !p.Wake() {
		t.Fatal("wake after reset not enabled")
	}
	if p.S != 1 {
		t.Errorf("baseline S after wake = %d, want 1 (§3 vulnerability)", p.S)
	}
}

func TestPaperSenderSaveFetchLeap(t *testing.T) {
	const k = 5
	p := NewPaperSender(k, true)

	// k sends trigger the background SAVE(k+1).
	for i := 0; i < k; i++ {
		if _, ok := p.Send(); !ok {
			t.Fatal("send not enabled")
		}
	}
	if !p.SavePending() {
		t.Fatal("no background SAVE pending after K sends")
	}
	if p.Lst != k+1 {
		t.Fatalf("Lst = %d, want %d", p.Lst, k+1)
	}
	if !p.Save() {
		t.Fatal("save not enabled")
	}
	if v, ok := p.Durable(); !ok || v != k+1 {
		t.Fatalf("durable = %d %v, want %d", v, ok, k+1)
	}

	// Reset after the save committed: wake resumes at durable + 2K.
	p.Reset()
	p.Wake()
	if want := uint64(k + 1 + 2*k); p.S != want {
		t.Errorf("S after wake = %d, want %d", p.S, want)
	}
	if v, _ := p.Durable(); v != p.S {
		t.Errorf("durable = %d, want %d (wake saves synchronously)", v, p.S)
	}
}

func TestPaperSenderTornSave(t *testing.T) {
	const k = 5
	p := NewPaperSender(k, true)

	for i := 0; i < k; i++ {
		p.Send()
	}
	p.Save() // durable k+1
	for i := 0; i < k; i++ {
		p.Send() // SAVE(2k+1) pending
	}
	lastUsed := p.S - 1
	if !p.SavePending() {
		t.Fatal("expected pending save")
	}
	// Reset strikes before the save commits: the write is torn.
	p.Reset()
	if p.SavePending() {
		t.Fatal("reset must tear the pending save")
	}
	p.Wake()
	if want := uint64(k + 1 + 2*k); p.S != want {
		t.Errorf("S after wake = %d, want %d (stale fetch + leap)", p.S, want)
	}
	if p.S <= lastUsed {
		t.Errorf("SAFETY: S %d not above last used %d", p.S, lastUsed)
	}
}

// rcv runs q's receive action on s, failing t if its guard is false.
func rcv(t *testing.T, q *PaperReceiver, s uint64) bool {
	t.Helper()
	delivered, ok := q.Rcv(s)
	if !ok {
		t.Fatalf("rcv %d not enabled", s)
	}
	return delivered
}

func TestPaperReceiverThreeCases(t *testing.T) {
	q := NewPaperReceiver(64, 10, true)

	if !rcv(t, q, 100) {
		t.Error("fresh 100 should deliver")
	}
	if r := q.Wdw.Edge(); r != 100 {
		t.Errorf("R = %d, want 100", r)
	}
	if !rcv(t, q, 80) {
		t.Error("in-window 80 should deliver")
	}
	if rcv(t, q, 80) {
		t.Error("duplicate 80 should discard")
	}
	if rcv(t, q, 100) {
		t.Error("replay of edge should discard")
	}
	if rcv(t, q, 36) {
		t.Error("stale 36 should discard")
	}
	if !rcv(t, q, 37) {
		t.Error("left edge 37 should deliver")
	}
}

func TestPaperReceiverWakeLeapsAndBlocksReplays(t *testing.T) {
	const k = 10
	q := NewPaperReceiver(32, k, true)

	for s := uint64(1); s <= k; s++ {
		rcv(t, q, s) // triggers SAVE(k)
	}
	if !q.SavePending() {
		t.Fatal("no SAVE pending at edge k")
	}
	q.Save()
	for s := uint64(k + 1); s <= k+5; s++ {
		rcv(t, q, s)
	}
	lastReceived := uint64(k + 5)

	q.Reset()
	q.Wake()

	if want, r := uint64(k+2*k), q.Wdw.Edge(); r != want {
		t.Errorf("R after wake = %d, want %d", r, want)
	}
	for s := uint64(1); s <= lastReceived; s++ {
		if rcv(t, q, s) {
			t.Fatalf("SAFETY: replay of %d delivered after wake", s)
		}
	}
	if !rcv(t, q, q.Wdw.Edge()+1) {
		t.Error("fresh message above new edge should deliver")
	}
}

func TestPaperBaselineReceiverAcceptsReplaysAfterReset(t *testing.T) {
	q := NewPaperReceiver(32, 0, false)
	for s := uint64(1); s <= 50; s++ {
		rcv(t, q, s)
	}
	q.Reset()
	q.Wake()

	accepted := 0
	for s := uint64(1); s <= 50; s++ {
		if rcv(t, q, s) {
			accepted++
		}
	}
	if accepted != 50 {
		t.Errorf("baseline accepted %d of 50 replays, want all (§3)", accepted)
	}
}

// system is p and q joined by a FIFO channel p -> q, with the reset and
// wake requests of the environment, scheduled as the notation prescribes:
// each step executes one action drawn uniformly from the enabled ones
// (weak fairness), listed in declaration order — p's send, save, reset and
// wake, then q's rcv, save, reset and wake. A reset is enabled once
// requested; a wake once requested and its process is waiting.
type system struct {
	rng       *rand.Rand
	p         *PaperSender
	q         *PaperReceiver
	ch        []uint64
	reset     [2]bool // requested resets of p and q
	wake      [2]bool // requested wakes of p and q
	delivered []uint64
}

func (sys *system) step() bool {
	var enabled []func()
	add := func(guard bool, action func()) {
		if guard {
			enabled = append(enabled, action)
		}
	}
	p, q := sys.p, sys.q
	add(!p.Wait, func() {
		s, _ := p.Send()
		sys.ch = append(sys.ch, s)
	})
	add(p.SavePending(), func() { p.Save() })
	add(sys.reset[0], func() { sys.reset[0] = false; p.Reset() })
	add(sys.wake[0] && p.Wait, func() { sys.wake[0] = false; p.Wake() })
	add(len(sys.ch) > 0 && !q.Wait, func() {
		s := sys.ch[0]
		sys.ch = sys.ch[1:]
		if delivered, _ := q.Rcv(s); delivered {
			sys.delivered = append(sys.delivered, s)
		}
	})
	add(q.SavePending(), func() { q.Save() })
	add(sys.reset[1], func() { sys.reset[1] = false; q.Reset() })
	add(sys.wake[1] && q.Wait, func() { sys.wake[1] = false; q.Wake() })
	if len(enabled) == 0 {
		return false
	}
	enabled[sys.rng.Intn(len(enabled))]()
	return true
}

// TestPaperSystemRandomizedNoDuplicateDelivery runs the full §4 protocol
// under the random scheduler with resets, wakes, and adversarial replays,
// and checks the paper's central theorem: the receiver never delivers the
// same sequence number twice.
func TestPaperSystemRandomizedNoDuplicateDelivery(t *testing.T) {
	runRandomizedScenario(t, 1)
}

func runRandomizedScenario(t *testing.T, seed int64) {
	t.Helper()
	const k = 7
	sys := &system{
		rng: rand.New(rand.NewSource(seed)),
		p:   NewPaperSender(k, true),
		q:   NewPaperReceiver(16, k, true),
	}
	rng := rand.New(rand.NewSource(seed * 31))
	p, q := sys.p, sys.q

	var sent []uint64
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(100); {
		case r == 0:
			sys.reset[0] = true
		case r == 1:
			sys.reset[1] = true
		case r < 6:
			sys.wake[0] = sys.wake[0] || p.Wait
			sys.wake[1] = sys.wake[1] || q.Wait
		case r < 16 && len(sent) > 0:
			sys.ch = append(sys.ch, sent[rng.Intn(len(sent))]) // adversary replay
		default:
			before := p.S
			sys.step()
			if p.S > before {
				sent = append(sent, before)
			}
		}
	}
	// Drain: wake everyone and let the system run dry of receive work.
	sys.wake[0] = sys.wake[0] || p.Wait
	sys.wake[1] = sys.wake[1] || q.Wait
	for i := 0; i < 2000 && sys.step(); i++ {
	}

	seen := make(map[uint64]bool)
	for _, s := range sys.delivered {
		if seen[s] {
			t.Fatalf("seed %d: SAFETY: sequence %d delivered twice", seed, s)
		}
		seen[s] = true
	}
}

func TestPaperSystemRandomizedManySeeds(t *testing.T) {
	for seed := int64(2); seed <= 25; seed++ {
		runRandomizedScenario(t, seed)
	}
}
