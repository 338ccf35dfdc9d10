package antireplay_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"antireplay"
	"antireplay/internal/store"
	"antireplay/internal/storefault"
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

	var lastSeq uint64
	for i := 0; i < 100; i++ {
		seq := nextSeq(t, snd)
		lastSeq = seq
		if v := admitSeq(rcv, seq); !v.Delivered() {
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

	seq := nextSeq(t, snd)
	if seq <= lastSeq {
		t.Errorf("post-wake seq %d <= pre-reset %d — sequence reuse", seq, lastSeq)
	}
	// Pre-reset sequence numbers replayed at the woken receiver are stale.
	if v := rcv.Admit(lastSeq); v.Delivered() {
		t.Errorf("replayed seq %d delivered after wake, verdict %v", lastSeq, v)
	}
	if v := admitSeq(rcv, seq); !v.Delivered() {
		t.Errorf("fresh post-wake seq %d = %v, want delivered", seq, v)
	}
}

// TestJournalConstructorsReturnUpOrError: over a journal whose cells a prior
// life left at 100, NewJournalSender/NewJournalReceiver return an endpoint
// that is up — past every number that life could have used — or the wake's
// error with the claim released; never a nil error beside an endpoint that is
// down or still waking.
func TestJournalConstructorsReturnUpOrError(t *testing.T) {
	const k, used = 10, 100
	for name, workers := range map[string]int{"nil pool": 0, "pool of one": 1} {
		usedJournal := func(t *testing.T, opts ...antireplay.LanesOption) (*antireplay.Lanes, *antireplay.SaverPool) {
			t.Helper()
			dir := t.TempDir()
			opts = append(opts, antireplay.LanesCount(1))
			j, err := antireplay.NewLanes(dir, opts...)
			if err != nil {
				t.Fatalf("NewLanes: %v", err)
			}
			for _, key := range []string{"tx", "rx"} {
				if err := j.Cell(key).Save(used); err != nil {
					t.Fatalf("seed %s: %v", key, err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if j, err = antireplay.NewLanes(dir, opts...); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			t.Cleanup(func() { j.Close() })
			if workers == 0 {
				return j, nil
			}
			pool := antireplay.NewSaverPool(workers)
			t.Cleanup(pool.Close)
			return j, pool
		}

		t.Run(name+"/disk fails at wake", func(t *testing.T) {
			in := storefault.NewInjector(nil)
			j, pool := usedJournal(t, store.LanesWithFS(in))
			in.Arm(storefault.Fault{Op: storefault.OpSync})
			for i := 0; i < 2; i++ {
				// The second round is the claim check: a failed
				// constructor must have released the key.
				snd, err := antireplay.NewJournalSender(j, "tx", k, pool)
				if !errors.Is(err, storefault.ErrInjected) || errors.Is(err, antireplay.ErrCellClaimed) || snd != nil {
					t.Fatalf("NewJournalSender #%d over a failing disk: sender = %v, err = %v; want none and the injected error", i+1, snd != nil, err)
				}
				rcv, err := antireplay.NewJournalReceiver(j, "rx", k, 64, pool)
				if !errors.Is(err, storefault.ErrInjected) || errors.Is(err, antireplay.ErrCellClaimed) || rcv != nil {
					t.Fatalf("NewJournalReceiver #%d over a failing disk: receiver = %v, err = %v; want none and the injected error", i+1, rcv != nil, err)
				}
			}
		})

		t.Run(name+"/healthy", func(t *testing.T) {
			j, pool := usedJournal(t)
			snd, err := antireplay.NewJournalSender(j, "tx", k, pool)
			if err != nil {
				t.Fatalf("NewJournalSender: %v", err)
			}
			if st := snd.State(); st != antireplay.StateUp {
				t.Errorf("sender State() on return = %v, want up", st)
			}
			if seq, err := snd.Next(); err != nil || seq <= used {
				t.Errorf("first Next() = (%d, %v), want a number above %d", seq, err, used)
			}
			rcv, err := antireplay.NewJournalReceiver(j, "rx", k, 64, pool)
			if err != nil {
				t.Fatalf("NewJournalReceiver: %v", err)
			}
			if st := rcv.State(); st != antireplay.StateUp {
				t.Errorf("receiver State() on return = %v, want up", st)
			}
			for seq := uint64(1); seq <= used; seq++ {
				if v := rcv.Admit(seq); v.Delivered() {
					t.Fatalf("SAFETY: replay of %d delivered by a fresh constructor, verdict %v", seq, v)
				}
			}
			if v := rcv.Admit(used + 2*k + 1); !v.Delivered() {
				t.Errorf("Admit(%d) past the leaped edge = %v, want delivered", used+2*k+1, v)
			}
		})
	}
}

// TestLanesRefusesOldCounterFile: the per-counter file format is gone, and
// the path an old deployment kept one at must not open as a fresh medium —
// that would restart the counter at 1. NewLanes fails naming the path and
// leaves the file as it was, so the value can still be read out and seeded.
func TestLanesRefusesOldCounterFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tx.seq")
	// "ARSQ", version 1, the counter big-endian at bytes 6..14, CRC-32.
	old := []byte("ARSQ\x00\x01\x00\x00\x00\x00\x00\x00\x00\x64\x5a\x5a\x5a\x5a")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := antireplay.NewLanes(path, antireplay.LanesCount(1))
	if err == nil {
		j.Close()
		t.Fatal("NewLanes over a regular file succeeded: the counter would restart at 1")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name %s", err, path)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, old) {
		t.Errorf("counter file after the refused open = %x (%v), want it untouched", got, rerr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("refused open left %d entries beside the counter file, want none", len(entries)-1)
	}
}

// TestJournalRecoveryPublic: a new Journal over the same path recovers every
// cell, through the public constructors only.
func TestJournalRecoveryPublic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.journal")
	const key = "tx/00000042" // the SA-shaped key a Gateway gives outbound SPI 0x42
	j, err := antireplay.NewLanes(path, antireplay.LanesCount(1))
	if err != nil {
		t.Fatalf("NewLanes: %v", err)
	}
	snd, err := antireplay.NewJournalSender(j, key, 5, nil)
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
	v, ok, err := j2.Cell(key).Fetch()
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
