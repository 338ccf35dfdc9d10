package antireplay_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"antireplay"
)

// TestJournalSenderReceiverRoundTrip drives the public journal-backed
// constructors through a reset on both endpoints sharing one journal.
func TestJournalSenderReceiverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pair.journal")
	j, err := antireplay.NewLanes(path, antireplay.LanesCount(1))
	if err != nil {
		t.Fatalf("NewLanes: %v", err)
	}
	pool := antireplay.NewSaverPool(2)
	defer func() {
		pool.Close()
		j.Close()
	}()

	snd, err := antireplay.NewJournalSender(j, "p", 10, pool)
	if err != nil {
		t.Fatalf("NewJournalSender: %v", err)
	}
	rcv, err := antireplay.NewJournalReceiver(j, "q", 10, 64, pool)
	if err != nil {
		t.Fatalf("NewJournalReceiver: %v", err)
	}

	// Next/Admit with retry: ErrSaveLag and VerdictHorizon are the strict
	// horizon's bounded backpressure while a pooled save catches up.
	next := func() uint64 {
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
	admit := func(seq uint64) antireplay.Verdict {
		t.Helper()
		for {
			v := rcv.Admit(seq)
			if v != antireplay.VerdictHorizon {
				return v
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	var lastSeq uint64
	for i := 0; i < 100; i++ {
		seq := next()
		lastSeq = seq
		if v := admit(seq); !v.Delivered() {
			t.Fatalf("Admit(%d) = %v, want delivered", seq, v)
		}
	}

	snd.Reset()
	rcv.Reset()
	snd.Wake()
	rcv.Wake()
	deadline := time.Now().Add(5 * time.Second)
	for snd.State() != antireplay.StateUp || rcv.State() != antireplay.StateUp {
		if err := snd.LastWakeError(); err != nil {
			t.Fatalf("sender wake: %v", err)
		}
		if err := rcv.LastWakeError(); err != nil {
			t.Fatalf("receiver wake: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("endpoints did not wake")
		}
		time.Sleep(100 * time.Microsecond)
	}

	seq := next()
	if seq <= lastSeq {
		t.Errorf("post-wake seq %d <= pre-reset %d — sequence reuse", seq, lastSeq)
	}
	// Pre-reset sequence numbers replayed at the woken receiver are stale.
	if v := rcv.Admit(lastSeq); v.Delivered() {
		t.Errorf("replayed seq %d delivered after wake, verdict %v", lastSeq, v)
	}
	if v := admit(seq); !v.Delivered() {
		t.Errorf("fresh post-wake seq %d = %v, want delivered", seq, v)
	}
}

// TestJournalRecoveryPublic: a new Journal over the same path recovers every
// cell, through the public constructors only.
func TestJournalRecoveryPublic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	j, err := antireplay.NewLanes(path, antireplay.LanesCount(1), antireplay.LanesCompactAt(1<<16))
	if err != nil {
		t.Fatalf("NewLanes: %v", err)
	}
	snd, err := antireplay.NewJournalSender(j, antireplay.OutboundKey(0x42), 5, nil)
	if err != nil {
		t.Fatalf("NewJournalSender: %v", err)
	}
	for i := 0; i < 60; i++ {
		if _, err := snd.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := antireplay.NewLanes(path, antireplay.LanesCount(1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	v, ok, err := j2.Cell(antireplay.OutboundKey(0x42)).Fetch()
	if err != nil || !ok {
		t.Fatalf("Fetch after reopen = (ok=%v, err=%v)", ok, err)
	}
	if v < 56 {
		// K=5: the last background save covered at least counter 56 of 61.
		t.Errorf("recovered counter %d, want >= 56", v)
	}
}

func TestSaverPoolClosedPublic(t *testing.T) {
	pool := antireplay.NewSaverPool(1)
	pool.Close()
	var m antireplay.MemStore
	var got error
	pool.Saver(&m).StartSave(1, func(err error) { got = err })
	if !errors.Is(got, antireplay.ErrSaverClosed) {
		t.Errorf("StartSave on closed pool = %v, want ErrSaverClosed", got)
	}
}
