package core_test

// Randomized-schedule property tests.
//
// Two regimes per endpoint:
//
//   - paper mode: schedules respect the paper's operating assumptions —
//     saves keep pace (at most one in flight, per the §4 sizing rule) and,
//     for the receiver, no loss-induced sequence jumps (fresh traffic
//     pauses while the receiver is down). Under these assumptions the
//     paper's theorems hold and the invariants below must too.
//   - strict mode (StrictHorizon): fully adversarial schedules — lagging
//     saves, traffic racing ahead during receiver downtime, replays of
//     everything — and the invariants must STILL hold, because the horizon
//     guard makes them unconditional.
//
// Invariants:
//
//   INV1 (sender):   no sequence number is ever handed out twice;
//   INV2 (receiver): no sequence number is ever delivered twice.

import (
	"math/rand"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

func TestSenderNeverReusesPaperMode(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed * 131))
		k := uint64(1 + rng.Intn(40))
		var m store.Mem
		sv := &core.HeldSaver{Store: &m}
		s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

		handedOut := make(map[uint64]int)
		down := false
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(20); {
			case r < 12 && !down: // send, with saves keeping pace (§4)
				seq, err := s.Next()
				if err != nil {
					continue
				}
				if handedOut[seq]++; handedOut[seq] > 1 {
					t.Fatalf("seed %d K=%d step %d: INV1 violated: seq %d reused",
						seed, k, step, seq)
				}
				for sv.Pending() > 1 {
					sv.Commit()
				}
			case r < 14:
				sv.Commit()
			case r < 16 && !down:
				s.Reset()
				down = true
			case r < 19 && down:
				s.Wake()
				sv.CommitAll() // the §4 wake waits for its save; model that
				down = s.State() != core.StateUp
			}
		}
	}
}

func TestSenderNeverReusesStrictMode(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed * 173))
		k := uint64(1 + rng.Intn(40))
		var m store.Mem
		sv := &core.HeldSaver{Store: &m}
		s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv, StrictHorizon: true})

		handedOut := make(map[uint64]int)
		down := false
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(20); {
			case r < 12 && !down: // send with NO pacing: commits lag freely
				seq, err := s.Next()
				if err != nil {
					continue // ErrSaveLag backpressure is allowed
				}
				if handedOut[seq]++; handedOut[seq] > 1 {
					t.Fatalf("seed %d K=%d step %d: INV1 violated: seq %d reused",
						seed, k, step, seq)
				}
			case r < 14: // commits are rare and partial
				sv.Commit()
			case r < 16 && !down:
				s.Reset()
				down = true
			case r < 19 && down:
				s.Wake()
				if rng.Intn(2) == 0 {
					sv.CommitAll()
				}
				down = s.State() != core.StateUp
			}
		}
	}
}

func TestReceiverNeverDuplicatesPaperMode(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed * 257))
		k := uint64(1 + rng.Intn(40))
		w := 1 + rng.Intn(100)

		var sm, rm store.Mem
		ssv := &core.HeldSaver{Store: &sm}
		rsv := &core.HeldSaver{Store: &rm}
		snd := mustSender(t, core.SenderConfig{K: k, Store: &sm, Saver: ssv})

		delivered := make(map[uint64]int)
		check := func(seq uint64) {
			if delivered[seq]++; delivered[seq] > 1 {
				t.Fatalf("seed %d K=%d w=%d: INV2 violated: seq %d delivered twice",
					seed, k, w, seq)
			}
		}
		rcv := mustReceiver(t, core.ReceiverConfig{
			K: k, W: w, Store: &rm, Saver: rsv,
			Drain: func(seq uint64, v core.Verdict) {
				if v.Delivered() {
					check(seq)
				}
			},
		})

		var wire []uint64
		rcvDown := false
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(20); {
			case r < 8 && !rcvDown:
				// Fresh traffic only while the receiver serves: the paper's
				// model has no loss-induced jumps across the reset.
				seq, err := snd.Next()
				if err != nil {
					continue
				}
				wire = append(wire, seq)
				if v := rcv.Admit(seq); v.Delivered() {
					check(seq)
				}
				for rsv.Pending() > 1 {
					rsv.Commit()
				}
				for ssv.Pending() > 1 {
					ssv.Commit()
				}
			case r < 12 && len(wire) > 0: // replays at any time
				seq := wire[rng.Intn(len(wire))]
				if v := rcv.Admit(seq); v.Delivered() {
					check(seq)
				}
			case r == 12:
				rsv.Commit()
				ssv.Commit()
			case r == 13 && !rcvDown:
				rcv.Reset()
				rcvDown = true
			case r < 16 && rcvDown:
				rcv.Wake()
				rsv.CommitAll()
				rcvDown = rcv.State() != core.StateUp
			}
		}
	}
}

func TestReceiverNeverDuplicatesStrictMode(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed * 389))
		k := uint64(1 + rng.Intn(40))
		w := 1 + rng.Intn(100)

		var sm, rm store.Mem
		ssv := &core.HeldSaver{Store: &sm}
		rsv := &core.HeldSaver{Store: &rm}
		snd := mustSender(t, core.SenderConfig{K: k, Store: &sm, Saver: ssv})

		delivered := make(map[uint64]int)
		check := func(seq uint64) {
			if delivered[seq]++; delivered[seq] > 1 {
				t.Fatalf("seed %d K=%d w=%d: INV2 violated: seq %d delivered twice",
					seed, k, w, seq)
			}
		}
		rcv := mustReceiver(t, core.ReceiverConfig{
			K: k, W: w, Store: &rm, Saver: rsv, StrictHorizon: true,
			Drain: func(seq uint64, v core.Verdict) {
				if v.Delivered() {
					check(seq)
				}
			},
		})

		var wire []uint64
		rcvDown := false
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(20); {
			case r < 8: // fully adversarial: traffic races ahead during downtime
				seq, err := snd.Next()
				if err != nil {
					continue
				}
				wire = append(wire, seq)
				if v := rcv.Admit(seq); v.Delivered() {
					check(seq)
				}
			case r < 12 && len(wire) > 0:
				seq := wire[rng.Intn(len(wire))]
				if v := rcv.Admit(seq); v.Delivered() {
					check(seq)
				}
			case r == 12: // commits lag freely
				rsv.Commit()
				ssv.CommitAll()
			case r == 13 && !rcvDown:
				rcv.Reset()
				rcvDown = true
			case r < 16 && rcvDown:
				rcv.Wake()
				if rng.Intn(2) == 0 {
					rsv.CommitAll()
				}
				rcvDown = rcv.State() != core.StateUp
			}
		}
	}
}
