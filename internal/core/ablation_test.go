package core_test

// Ablation tests documenting which environmental assumption each paper
// mechanism depends on. These tests *expect* the violation to appear when
// the assumption is broken — if an ablation stops failing, the test suite
// no longer demonstrates why the mechanism is needed.

import (
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// TestLyingStorageBreaksTheLeapBound: the paper assumes a completed SAVE is
// durable. A medium that acknowledges before persisting (no fsync, lost
// write-back cache) silently breaks the 2K bound: after a reset the FETCH
// returns a value older than the protocol believes, and the leap no longer
// clears the numbers used before the crash.
func TestLyingStorageBreaksTheLeapBound(t *testing.T) {
	const k = 5
	f := &brokenMem{}
	sv := &core.HeldSaver{Store: f}
	s := mustSender(t, core.SenderConfig{K: k, Store: f, Saver: sv})

	sendN(t, s, k) // SAVE(6)
	sv.CommitAll()
	// From here on, storage acknowledges but drops every write.
	f.lying = true
	sendN(t, s, 4*k) // several "successful" saves, none durable
	lastUsed := uint64(5 * k)

	s.Reset()
	s.Wake()
	sv.CommitAll() // post-wake save also lost, but reported fine
	if s.State() != core.StateUp {
		t.Fatalf("state = %v (err %v)", s.State(), s.LastWakeError())
	}

	resume := s.Seq()
	// The violation this ablation documents: the resume point falls at or
	// below numbers already used.
	if resume > lastUsed {
		t.Fatalf("expected the lying storage to break the bound, but resume %d > last used %d — "+
			"the ablation no longer demonstrates the durability requirement", resume, lastUsed)
	}
	if f.lost == 0 {
		t.Fatal("no saves were lost; the fault injection is broken")
	}
}

// TestUndersizedKBreaksTheLeapBound: §4's sizing rule K = ceil(Tsave/Tsend)
// is a correctness requirement. If far more than K messages flow while one
// save is in flight, the durable value lags more than 2K and a reset
// resumes below the last used number.
func TestUndersizedKBreaksTheLeapBound(t *testing.T) {
	const k = 5
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

	// The "disk" never catches up: 10K messages flow with every save still
	// in flight (an undersized K relative to the real save latency).
	sendN(t, s, 10*k)
	lastUsed := uint64(10 * k)

	s.Reset() // tears every pending save; durable is still the initial 1
	s.Wake()
	sv.CommitAll()

	resume := s.Seq()
	if want := uint64(1 + 2*k); resume != want {
		t.Fatalf("resume = %d, want %d (fetched initial 1 + leap)", resume, want)
	}
	if resume > lastUsed {
		t.Fatal("expected the undersized K to break the bound — " +
			"the ablation no longer demonstrates the §4 sizing rule")
	}
}

// TestProperlySizedKHoldsTheBound is the control for the previous test:
// when saves keep pace (at most K messages between commit opportunities),
// the bound holds no matter where the reset lands.
func TestProperlySizedKHoldsTheBound(t *testing.T) {
	const k = 5
	for resetAt := uint64(1); resetAt <= 6*k; resetAt++ {
		var m store.Mem
		sv := &core.HeldSaver{Store: &m}
		s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

		var lastUsed uint64
		for i := uint64(1); i <= resetAt; i++ {
			seq, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			lastUsed = seq
			// The medium keeps pace: commits happen within K sends.
			if i%k == 0 {
				sv.CommitAll()
			}
		}
		s.Reset()
		s.Wake()
		sv.CommitAll()

		resume := s.Seq()
		if resume <= lastUsed {
			t.Fatalf("resetAt=%d: SAFETY: resume %d <= last used %d", resetAt, resume, lastUsed)
		}
		if lost := resume - lastUsed - 1; lost > 2*k {
			t.Fatalf("resetAt=%d: lost %d > 2K=%d", resetAt, lost, 2*k)
		}
	}
}
