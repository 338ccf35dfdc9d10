package core_test

// Tests for the strict durable horizon — the guard this implementation adds
// beyond the paper after finding that the receiver-side Figure 2 analysis
// assumes the window edge advances at most Kq numbers per save interval.
// See README.md ("Tests and benchmarks": the analysis-gap note).

import (
	"errors"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// lossJumpRows are the two ways a receiver's deliveries outrun its saved edge
// by more than the leap: a loss-induced jump whose save a reset tears, and
// plain in-order traffic while the SAVE hand-off is held up — the paper's
// K >= T_save/T_send broken by a slow medium or a scheduler, which is what a
// non-strict receiver under concurrent admitters runs into. Each row admits
// 1..2K in order, then s.
var lossJumpRows = []struct {
	name   string
	commit bool // the in-order saves land as they are triggered
	s      uint64
}{
	{"loss jump, save torn", true, 1000},
	{"no jump, save held", false, 2*lossJumpK + 1},
}

const lossJumpK = 25

// lossJumpSchedule runs a row up to the replay: 1..2K, s, reset, wake. It
// returns the receiver woken and the first life's verdicts.
func lossJumpSchedule(t *testing.T, strict, commit bool, s uint64) (*core.Receiver, map[uint64]core.Verdict) {
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: lossJumpK, W: 64, Store: &m, Saver: sv, StrictHorizon: strict})
	first := map[uint64]core.Verdict{}
	for seq := uint64(1); seq <= 2*lossJumpK; seq++ {
		first[seq] = r.Admit(seq)
		if commit {
			sv.CommitAll()
		}
	}
	first[s] = r.Admit(s)
	r.Reset() // tears whatever save is in flight
	r.Wake()
	sv.CommitAll()
	return r, first
}

// TestPaperProtocolLossJumpViolation pins the gap itself: under the paper's
// unguarded protocol the adversary gets s delivered twice, and nothing below
// committed+2K. If this test ever fails, the faithful reproduction of the
// paper's behaviour changed.
func TestPaperProtocolLossJumpViolation(t *testing.T) {
	for _, row := range lossJumpRows {
		t.Run(row.name, func(t *testing.T) {
			r, first := lossJumpSchedule(t, false, row.commit, row.s)
			if !first[row.s].Delivered() {
				t.Fatalf("first Admit(%d) = %v, want delivery", row.s, first[row.s])
			}
			for s, edge := uint64(1), r.Edge(); s <= edge; s++ {
				if r.Admit(s).Delivered() {
					t.Errorf("replay of %d, not past the woken edge %d, delivered", s, edge)
				}
			}
			if v := r.Admit(row.s); !v.Delivered() {
				t.Fatalf("replay of %d = %v: expected the paper's protocol to re-deliver it — "+
					"the reproduction of the analysis gap no longer holds", row.s, v)
			}
		})
	}
}

// TestStrictHorizonClosesLossJump: the same schedules with StrictHorizon
// never deliver s in the first place (it lies at or beyond committed+2K), so
// nothing can repeat.
func TestStrictHorizonClosesLossJump(t *testing.T) {
	for _, row := range lossJumpRows {
		t.Run(row.name, func(t *testing.T) {
			r, first := lossJumpSchedule(t, true, row.commit, row.s)
			if first[row.s] != core.VerdictHorizon {
				t.Fatalf("first Admit(%d) = %v, want horizon", row.s, first[row.s])
			}
			// Replay everything, twice: a number is beyond the (new) horizon
			// again, or delivered once when saves catch up; never twice.
			delivered := map[uint64]bool{}
			replay := func(s uint64) {
				if !r.Admit(s).Delivered() {
					return
				}
				if first[s].Delivered() || delivered[s] {
					t.Fatalf("SAFETY: %d delivered twice despite the horizon", s)
				}
				delivered[s] = true
			}
			for range 2 {
				for s := uint64(1); s <= 2*lossJumpK; s++ {
					replay(s)
				}
				replay(row.s)
			}
		})
	}
}

// TestStrictHorizonLiveness: with commits keeping pace, the horizon never
// interferes — gap-free traffic flows exactly as in the paper's protocol.
func TestStrictHorizonLiveness(t *testing.T) {
	const k = 10
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: k, W: 64, Store: &m, Saver: sv, StrictHorizon: true})
	for s := uint64(1); s <= 500; s++ {
		if v := r.Admit(s); !v.Delivered() {
			t.Fatalf("Admit(%d) = %v with commits keeping pace", s, v)
		}
		sv.CommitAll()
	}
}

// TestStrictHorizonRecoversAfterJumpDrop: a jump is dropped, but once saves
// catch up the stream resumes (bounded unavailability, not a deadlock).
func TestStrictHorizonRecoversAfterJumpDrop(t *testing.T) {
	const k = 10
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: k, W: 256, Store: &m, Saver: sv, StrictHorizon: true})
	for s := uint64(1); s <= 30; s++ {
		r.Admit(s)
		sv.CommitAll()
	}
	// Jump to 90: beyond horizon 30+20=50 -> dropped. The sender retries
	// (or later traffic arrives); each delivered message below the horizon
	// advances the edge, starts saves, and extends the horizon.
	if v := r.Admit(90); v != core.VerdictHorizon {
		t.Fatalf("Admit(90) = %v, want horizon", v)
	}
	delivered := false
	for try := 0; try < 10 && !delivered; try++ {
		// In-horizon traffic keeps flowing and commits extend the horizon.
		for s := uint64(31 + try*5); s <= uint64(35+try*5); s++ {
			r.Admit(s)
			sv.CommitAll()
		}
		delivered = r.Admit(90).Delivered()
		sv.CommitAll()
	}
	if !delivered {
		t.Fatal("jump never became deliverable; horizon starved the stream")
	}
}

func TestSenderStrictHorizonBackpressure(t *testing.T) {
	const k = 5
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv, StrictHorizon: true})

	// With no commits at all, the sender refuses past committed(1)+2K-1.
	sent := 0
	for {
		_, err := s.Next()
		if errors.Is(err, core.ErrSaveLag) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sent++
		if sent > 3*k {
			t.Fatal("no backpressure: sender ran past the horizon")
		}
	}
	if sent != 2*k {
		t.Errorf("sent %d before backpressure, want %d (seqs 1..committed+leap-1)", sent, 2*k)
	}
	// A commit releases the backpressure.
	sv.CommitAll()
	if _, err := s.Next(); err != nil {
		t.Errorf("Next after commit = %v, want nil", err)
	}
	// And a reset after all this never reuses a number.
	s.Reset()
	s.Wake()
	sv.CommitAll()
	seq, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if seq <= uint64(sent)+1 {
		t.Errorf("SAFETY: resumed at %d, at or below used numbers", seq)
	}
}

func TestVerdictHorizonString(t *testing.T) {
	if got := core.VerdictHorizon.String(); got != "horizon" {
		t.Errorf("String = %q, want horizon", got)
	}
	if core.VerdictHorizon.Delivered() {
		t.Error("horizon verdict must not deliver")
	}
}
