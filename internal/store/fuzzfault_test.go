package store

import (
	"path/filepath"
	"syscall"
	"testing"

	"antireplay/internal/storefault"
)

// decodeFaultSchedule turns fuzz bytes into a fault schedule plus a save
// script. The encoding is deliberately forgiving — every byte string decodes
// to something — so the fuzzer spends its budget exploring fault timing, not
// fighting a parser:
//
//	byte 0:            nfaults = b%5
//	per fault, 5 bytes: op(b%8), path(b%3: any/log/compact), after(b%16),
//	                    count(b%4, 0=forever), err+short(b%3: injected/EIO/
//	                    ENOSPC; b/3%8 torn-write bytes)
//	remaining bytes:    one save each, key = b%4
func decodeFaultSchedule(data []byte) (faults []storefault.Fault, script []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	nfaults := int(data[0]) % 5
	data = data[1:]
	errs := []error{nil /* ErrInjected */, syscall.EIO, syscall.ENOSPC}
	for i := 0; i < nfaults && len(data) >= 5; i++ {
		paths := []string{"", "seq.journal", ".compact"}
		faults = append(faults, storefault.Fault{
			Op:    storefault.Op(int(data[0]) % 8),
			Path:  paths[int(data[1])%3],
			After: int(data[2]) % 16,
			Count: int(data[3]) % 4,
			Err:   errs[int(data[4])%3],
			Short: (int(data[4]) / 3) % 8,
		})
		data = data[5:]
	}
	if len(data) > 96 {
		data = data[:96] // each save fsyncs a real file; keep cases cheap
	}
	return faults, data
}

// FuzzFaultScheduleRecovery drives a journal through an arbitrary injected
// fault schedule and then checks the only promise that matters afterwards:
// nothing the journal acknowledged is lost, and nothing broken is silently
// accepted. Concretely, for every byte string:
//
//   - no operation panics, however the schedule fails the file layer;
//   - once any save fails, the journal is poisoned: every later save fails
//     too (fsyncgate — no retry-and-report-success), with the exception of
//     the documented ENOSPC write-step rescue, which is a *successful* save
//     and therefore durable like any other;
//   - after disarming the schedule, a clean reopen either refuses loudly or
//     recovers at least the highest acknowledged value of every key —
//     acked-but-lost is the one outcome that must never appear.
func FuzzFaultScheduleRecovery(f *testing.F) {
	// No faults, a few saves across keys.
	f.Add([]byte("\x00\x00\x01\x02\x03\x00\x01\x02\x03"))
	// One EIO on the 3rd sync of the live log, then more saves.
	f.Add([]byte("\x01\x01\x01\x02\x01\x01\x00\x01\x02\x03\x00\x01\x02\x03"))
	// Torn write (4 bytes land) on the 2nd write, forever.
	f.Add([]byte("\x01\x00\x01\x01\x00\x0c\x00\x01\x02\x03\x00\x01\x02\x03"))
	// ENOSPC on a compact temp write, then a long run to cross compaction.
	f.Add(append([]byte("\x01\x00\x02\x00\x01\x02"), make([]byte, 96)...))
	// Rename failure plus a dead-forever sync, interleaved keys.
	f.Add([]byte("\x02\x05\x01\x03\x01\x01\x01\x00\x06\x01\x00\x01\x02\x03\x00\x01\x02\x03\x00\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		faults, script := decodeFaultSchedule(data)
		in := storefault.NewInjector(nil)
		in.Arm(faults...)

		path := filepath.Join(t.TempDir(), "seq.journal")
		// A small compaction threshold so long scripts cross it and the
		// schedule gets shots at the temp-write/rename/remove path too.
		j, err := openLane(path, LanesWithFS(in), LanesCompactAt(256))
		if err != nil {
			return // refused to open under faults: fine
		}

		keys := [4]string{"fz/k0", "fz/k1", "fz/k2", "fz/k3"}
		var next, acked [4]uint64
		poisoned := false
		for _, b := range script {
			k := int(b) % 4
			next[k]++
			err := j.Cell(keys[k]).Save(next[k])
			if err == nil {
				acked[k] = next[k]
				// An ENOSPC write rescue compacts in place of the failed
				// batch (the snapshot holds it; nothing is retried), so a
				// success after a poison-check matters: a poisoned journal
				// must never ack.
				if poisoned && j.poisoned() != nil {
					t.Fatalf("save acked on a poisoned journal (poison %v)", j.poisoned())
				}
				continue
			}
			if j.poisoned() != nil {
				poisoned = true
			}
		}
		if poisoned {
			// fsyncgate: the poison is permanent until Repair; a later save
			// must keep failing rather than retry the sync.
			if err := j.Cell(keys[0]).Save(next[0] + 1); err == nil {
				t.Fatal("save succeeded on a poisoned journal")
			}
		}
		_ = j.Close() // may return the poison error; either way it must not panic

		// The disk is healthy again: recovery must hand back every acked
		// value or refuse the file outright — never silently roll back.
		in.Disarm()
		j2, err := openLane(path)
		if err != nil {
			t.Skipf("clean reopen refused (explicit, acceptable): %v", err)
		}
		defer j2.Close()
		j2.mu.Lock()
		got := j2.valuesInto(map[string]uint64{})
		j2.mu.Unlock()
		for k, want := range acked {
			if got[keys[k]] < want {
				t.Fatalf("key %s: acked %d, recovered %d — acknowledged save lost", keys[k], want, got[keys[k]])
			}
		}
		if err := j2.Cell("fz/fresh").Save(1); err != nil {
			t.Fatalf("recovered journal refuses a fresh save: %v", err)
		}
	})
}
