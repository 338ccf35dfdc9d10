package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"antireplay/internal/storefault"
	"antireplay/internal/watchdog"
)

// openLane opens one lane's log at path the way OpenLanes opens lane 0 of a
// medium: the suites below drive a lane directly, so they can tear, flip and
// rewrite its file between opens.
func openLane(path string, opts ...LanesOption) (*Journal, error) {
	return openJournal(path, 0, newLanesConfig(opts))
}

// A lane's per-key surface, for the suites that drive one lane directly;
// a medium's keys go through Lanes, which routes them.
func (j *Journal) Cell(key string) *Cell               { return j.cell(key) }
func (j *Journal) ClaimCell(key string) (*Cell, error) { return j.Cell(key).claim(true) }
func (j *Journal) ReleaseCell(key string)              { j.Cell(key).claim(false) }
func (j *Journal) Delete(key string) error             { return j.Cell(key).append(0, true) }
func (j *Journal) poisoned() error                     { return j.stats().Poisoned }

// appendRecord appends one frame for key as the file layout in journal.go
// spells it, written out independently of the journal's own encoder so the
// suites that hand-build a log check that encoder too.
func appendRecord(buf []byte, key string, v uint64, del bool) []byte {
	start := len(buf)
	lf := uint16(len(key))
	if del {
		lf |= journalTombstone
	}
	buf = binary.BigEndian.AppendUint16(buf, lf)
	buf = binary.BigEndian.AppendUint64(buf, v)
	buf = append(buf, key...)
	return binary.BigEndian.AppendUint32(buf, journalCRC(buf[start:]))
}

func journalAt(t *testing.T, opts ...LanesOption) *Journal {
	t.Helper()
	j, err := openLane(filepath.Join(t.TempDir(), "sa.journal"), opts...)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	return j
}

func TestJournalEmptyCellFetch(t *testing.T) {
	j := journalAt(t)
	defer j.Close()
	v, ok, err := j.Cell("tx/1").Fetch()
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if ok || v != 0 {
		t.Errorf("Fetch on empty cell = (%d, %v), want (0, false)", v, ok)
	}
}

func TestJournalSaveFetchRoundTrip(t *testing.T) {
	j := journalAt(t)
	defer j.Close()
	// Two Cells made for one key before any save: whichever saves, both
	// fetch the key's one value.
	cells := []*Cell{j.Cell("tx/1"), j.Cell("tx/1")}
	for i, v := range []uint64{1, 25, 1 << 40, ^uint64(0)} {
		if err := cells[i%2].Save(v); err != nil {
			t.Fatalf("Save(%d): %v", v, err)
		}
		for _, c := range cells {
			got, ok, err := c.Fetch()
			if err != nil || !ok || got != v {
				t.Errorf("Fetch = (%d, %v, %v), want (%d, true, nil)", got, ok, err, v)
			}
		}
	}
}

func TestJournalSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sa.journal")
	j, err := openLane(path)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := j.Cell(fmt.Sprintf("tx/%d", i)).Save(uint64(1000 + i)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh handle over the same path models the post-reset FETCH.
	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if j2.stats().Keys != 100 {
		t.Errorf("Keys = %d, want 100", j2.stats().Keys)
	}
	for i := 0; i < 100; i++ {
		got, ok, err := j2.Cell(fmt.Sprintf("tx/%d", i)).Fetch()
		if err != nil || !ok || got != uint64(1000+i) {
			t.Errorf("key %d: Fetch = (%d, %v, %v), want (%d, true, nil)", i, got, ok, err, 1000+i)
		}
	}
}

func TestJournalRecoveryKeepsMaxPerKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sa.journal")
	j, err := openLane(path)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	// Appends are not required to be monotone at the journal layer; the
	// recovered value must be the max, never a stale later append.
	for _, v := range []uint64{5, 9, 3, 7} {
		if err := j.Cell("a").Save(v); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if err := j.Cell("b").Save(2); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if v, _, _ := j.Cell("a").Fetch(); v != 9 {
		t.Errorf("live Fetch(a) = %d, want max 9", v)
	}
	j.Close()

	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if v, _, _ := j2.Cell("a").Fetch(); v != 9 {
		t.Errorf("recovered Fetch(a) = %d, want max 9", v)
	}
	if v, _, _ := j2.Cell("b").Fetch(); v != 2 {
		t.Errorf("recovered Fetch(b) = %d, want 2", v)
	}
}

// corruptAndReopen closes j, mutates its file, reopens, and returns the new
// handle.
func corruptAndReopen(t *testing.T, j *Journal, mutate func([]byte) []byte) *Journal {
	t.Helper()
	path := j.path
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, mutate(data), 0o600); err != nil {
		t.Fatalf("write: %v", err)
	}
	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	return j2
}

func TestJournalTornTailGarbage(t *testing.T) {
	j := journalAt(t)
	for i := uint64(1); i <= 10; i++ {
		if err := j.Cell("tx/1").Save(i * 10); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	// A reset mid-append leaves a partial frame at the tail.
	j2 := corruptAndReopen(t, j, func(b []byte) []byte {
		return append(b, 0xDE, 0xAD, 0xBE)
	})
	defer j2.Close()
	if v, ok, _ := j2.Cell("tx/1").Fetch(); !ok || v != 100 {
		t.Errorf("Fetch after torn tail = (%d, %v), want (100, true)", v, ok)
	}
	// The tail was truncated: appends resume on a clean frame and a second
	// recovery still parses.
	if err := j2.Cell("tx/1").Save(110); err != nil {
		t.Fatalf("Save after recovery: %v", err)
	}
	path := j2.path
	j2.Close()
	j3, err := openLane(path)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer j3.Close()
	if v, _, _ := j3.Cell("tx/1").Fetch(); v != 110 {
		t.Errorf("Fetch after append-over-truncation = %d, want 110", v)
	}
}

func TestJournalTruncatedMidRecord(t *testing.T) {
	j := journalAt(t)
	if err := j.Cell("a").Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := j.Cell("b").Save(8); err != nil {
		t.Fatalf("Save: %v", err)
	}
	j2 := corruptAndReopen(t, j, func(b []byte) []byte {
		return b[:len(b)-3] // tear the last record
	})
	defer j2.Close()
	if v, ok, _ := j2.Cell("a").Fetch(); !ok || v != 7 {
		t.Errorf("Fetch(a) = (%d, %v), want (7, true): earlier record lost", v, ok)
	}
	if _, ok, _ := j2.Cell("b").Fetch(); ok {
		t.Error("Fetch(b) ok after its record was torn, want not-present")
	}
}

// TestJournalMidLogCorruption covers both recovery modes for a bad frame
// with valid records behind it: the tolerant default skips the damaged
// region, keeps replaying the valid records behind it, and surfaces the
// loss through RecoveryStats (the old behavior silently truncated every
// record behind the damage — durable counters rolled back with no signal);
// LanesStrictRecovery still refuses with ErrCorrupt for deployments that
// want a human in the loop before trusting a medium that damaged an
// acknowledged record.
func TestJournalMidLogCorruption(t *testing.T) {
	j := journalAt(t)
	if err := j.Cell("a").Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := j.Cell("b").Save(8); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := j.path
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	flips := map[string]int{
		"value byte":  journalHeaderLen + 5,
		"length byte": journalHeaderLen + 1, // misframes the whole suffix
	}
	for name, idx := range flips {
		t.Run(name, func(t *testing.T) {
			data := append([]byte(nil), orig...)
			data[idx] ^= 0xFF
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := openLane(path, LanesStrictRecovery()); !errors.Is(err, ErrCorrupt) {
				t.Errorf("strict openLane (%s) = %v, want ErrCorrupt", name, err)
			}
			j2, err := openLane(path)
			if err != nil {
				t.Fatalf("tolerant openLane (%s): %v", name, err)
			}
			defer j2.Close()
			if _, ok, _ := j2.Cell("a").Fetch(); ok {
				t.Errorf("tolerant recovery (%s): Fetch(a) ok, want dropped (its frame is the damaged one)", name)
			}
			if v, ok, _ := j2.Cell("b").Fetch(); !ok || v != 8 {
				t.Errorf("tolerant recovery (%s): Fetch(b) = (%d, %v), want (8, true): valid record behind the damage must survive", name, v, ok)
			}
			rs := j2.stats().Recovery
			if rs.FramesDropped != 1 || rs.FramesReplayed != 1 || rs.TornTail {
				t.Errorf("tolerant recovery (%s): stats = %+v, want 1 dropped region, 1 replayed, no torn tail", name, rs)
			}
		})
	}
}

// TestJournalMidLogByteFlipRegression is the satellite regression test for
// the silent-truncation bug: many records, one byte flipped mid-log, and
// every record outside the damaged frame must survive recovery — including
// across a reopen, proving appends resume correctly on the undamaged log.
func TestJournalMidLogByteFlipRegression(t *testing.T) {
	j := journalAt(t)
	const n = 50
	for i := 0; i < n; i++ {
		if err := j.Cell(fmt.Sprintf("rx/%08x", i)).Save(uint64(1000 + i)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	path := j.path
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip one byte in the middle of the log (inside some record's frame).
	data[len(data)/2] ^= 0xA5
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("write: %v", err)
	}
	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	rs := j2.stats().Recovery
	if rs.FramesDropped == 0 {
		t.Fatalf("RecoveryStats = %+v, want a dropped region", rs)
	}
	if rs.TornTail {
		t.Errorf("RecoveryStats = %+v: mid-log damage misreported as a torn tail", rs)
	}
	lost := 0
	for i := 0; i < n; i++ {
		if _, ok, _ := j2.Cell(fmt.Sprintf("rx/%08x", i)).Fetch(); !ok {
			lost++
		}
	}
	// Exactly the records inside the damaged region are gone; the flip hits
	// one frame, and the probe resynchronizes on the next valid one.
	if lost == 0 || lost > 2 {
		t.Errorf("%d records lost, want 1-2 (the damaged region only)", lost)
	}
	if got := int(rs.FramesReplayed); got != n-lost {
		t.Errorf("FramesReplayed = %d, want %d", got, n-lost)
	}
	// Appends resume cleanly after the damaged log is adopted.
	if err := j2.Cell("rx/00000001").Save(9000); err != nil {
		t.Fatalf("Save after recovery: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3, err := openLane(path)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer j3.Close()
	if v, ok, _ := j3.Cell("rx/00000001").Fetch(); !ok || v != 9000 {
		t.Errorf("Fetch after append-over-damage = (%d, %v), want (9000, true)", v, ok)
	}
}

// TestJournalFullLengthGarbageTail: writeback filesystems can persist a
// file's size before its data, so a crash can leave a full frame of
// garbage at the tail. With nothing valid after it, that is a tear —
// recovery must truncate it, not refuse the journal.
func TestJournalFullLengthGarbageTail(t *testing.T) {
	j := journalAt(t)
	if err := j.Cell("a").Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	j2 := corruptAndReopen(t, j, func(b []byte) []byte {
		// A zeroed "record": keyLen 0 frames 14 bytes, CRC mismatches.
		return append(b, make([]byte, 14)...)
	})
	defer j2.Close()
	if v, ok, _ := j2.Cell("a").Fetch(); !ok || v != 7 {
		t.Errorf("Fetch(a) after garbage tail = (%d, %v), want (7, true)", v, ok)
	}
	if err := j2.Cell("a").Save(8); err != nil {
		t.Fatalf("Save after truncation: %v", err)
	}
}

func TestJournalCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sa.journal")
	if err := os.WriteFile(path, []byte("XXXXXXXXXXXX"), 0o600); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := openLane(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("openLane on bad magic = %v, want ErrCorrupt", err)
	}
}

func TestJournalClaimCell(t *testing.T) {
	j := journalAt(t)
	defer j.Close()
	c, err := j.ClaimCell("tx/1")
	if err != nil {
		t.Fatalf("ClaimCell: %v", err)
	}
	if err := c.Save(5); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := j.ClaimCell("tx/1"); !errors.Is(err, ErrCellClaimed) {
		t.Errorf("second ClaimCell = %v, want ErrCellClaimed", err)
	}
	if _, err := j.ClaimCell("tx/2"); err != nil {
		t.Errorf("ClaimCell on other key = %v, want nil", err)
	}
	j.ReleaseCell("tx/1")
	if _, err := j.ClaimCell("tx/1"); err != nil {
		t.Errorf("ClaimCell after release = %v, want nil", err)
	}
}

func TestJournalBadKey(t *testing.T) {
	j := journalAt(t)
	defer j.Close()
	if err := j.Cell("").Save(1); !errors.Is(err, ErrBadKey) {
		t.Errorf("empty key Save = %v, want ErrBadKey", err)
	}
	long := make([]byte, journalMaxKey+1)
	if err := j.Cell(string(long)).Save(1); !errors.Is(err, ErrBadKey) {
		t.Errorf("oversized key Save = %v, want ErrBadKey", err)
	}
	// Every operation on a bad key's Cell fails, and none interns the key
	// or puts a Cell in the table.
	for _, k := range []string{"", string(long)} {
		c := j.Cell(k)
		if _, err := c.Stage(1); !errors.Is(err, ErrBadKey) {
			t.Errorf("bad key Stage = %v, want ErrBadKey", err)
		}
		if _, _, err := c.Fetch(); !errors.Is(err, ErrBadKey) {
			t.Errorf("bad key Fetch = %v, want ErrBadKey", err)
		}
		if _, err := j.ClaimCell(k); !errors.Is(err, ErrBadKey) {
			t.Errorf("bad key ClaimCell = %v, want ErrBadKey", err)
		}
		if err := j.Delete(k); !errors.Is(err, ErrBadKey) {
			t.Errorf("bad key Delete = %v, want ErrBadKey", err)
		}
		j.ReleaseCell(k)
	}
	if len(j.names) != 0 || len(j.cells) != 0 {
		t.Errorf("bad keys left %d names and %d cells, want none", len(j.names), len(j.cells))
	}
}

// TestLanesNamedNoOpsInternNothing: releasing or tombstoning a named key
// its lane has never met acts on nothing, so 10,000 such calls on distinct
// keys leave every lane's name table empty; asking for the key's Cell,
// through which a caller may save, interns it.
func TestLanesNamedNoOpsInternNothing(t *testing.T) {
	l, err := OpenLanes(t.TempDir(), LanesCount(4))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("probe/%d", i)
		l.ReleaseCell(key)
		if err := l.Delete(key); err != nil {
			t.Fatalf("Delete %s = %v, want nil", key, err)
		}
	}
	for i, j := range l.lanes {
		if len(j.names) != 0 || len(j.named) != 0 || len(j.cells) != 0 {
			t.Errorf("lane %d: %d names, %d named and %d cells after releases and deletes of unmet keys, want none",
				i, len(j.names), len(j.named), len(j.cells))
		}
	}
	l.Cell("probe/0")
	names := 0
	for _, j := range l.lanes {
		names += len(j.names)
	}
	if names != 1 {
		t.Errorf("Cell(probe/0) interned %d names, want 1", names)
	}
}

func TestJournalClosed(t *testing.T) {
	j := journalAt(t)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := j.Cell("a").Save(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Save after Close = %v, want ErrClosed", err)
	}
	if _, _, err := j.Cell("a").Fetch(); !errors.Is(err, ErrClosed) {
		t.Errorf("Fetch after Close = %v, want ErrClosed", err)
	}
}

func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sa.journal")
	j, err := openLane(path, LanesCompactAt(2048))
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	const keys = 10
	for round := uint64(1); round <= 100; round++ {
		for k := 0; k < keys; k++ {
			if err := j.Cell(fmt.Sprintf("tx/%d", k)).Save(round * 100); err != nil {
				t.Fatalf("Save: %v", err)
			}
		}
	}
	if j.stats().Compactions == 0 {
		t.Error("Compactions = 0, want > 0 for a 1000-record log capped at 2KB")
	}
	if size := j.stats().LogSize; size > 4096 {
		t.Errorf("LogSize = %d after compaction, want bounded (<= 4096)", size)
	}
	j.Close()

	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	for k := 0; k < keys; k++ {
		got, ok, err := j2.Cell(fmt.Sprintf("tx/%d", k)).Fetch()
		if err != nil || !ok || got != 10000 {
			t.Errorf("key %d after compaction+reopen = (%d, %v, %v), want (10000, true, nil)", k, got, ok, err)
		}
	}
}

// TestJournalCompactionNoThrash: when the key population alone outgrows
// the compaction threshold, compaction must not re-trigger on every save —
// the log only compacts once it doubles the snapshot size.
func TestJournalCompactionNoThrash(t *testing.T) {
	// 100 keys x ~20 bytes ≈ 2KB snapshot, well past the 256-byte
	// threshold; the old trigger would compact on every save.
	j := journalAt(t, LanesCompactAt(256))
	const keys, rounds = 100, 20
	for r := uint64(1); r <= rounds; r++ {
		for k := 0; k < keys; k++ {
			if err := j.Cell(fmt.Sprintf("sa/%03d", k)).Save(r); err != nil {
				t.Fatalf("Save: %v", err)
			}
		}
	}
	saves := uint64(keys * rounds)
	if c := j.stats().Compactions; c == 0 || c > saves/10 {
		t.Errorf("Compactions = %d over %d saves, want amortized (0 < c <= %d)", c, saves, saves/10)
	}
	for k := 0; k < keys; k++ {
		if v, ok, _ := j.Cell(fmt.Sprintf("sa/%03d", k)).Fetch(); !ok || v != rounds {
			t.Errorf("key %d = (%d, %v), want (%d, true)", k, v, ok, rounds)
		}
	}
	j.Close()
}

// TestJournalNoCounterRegression is the acceptance property: across a crash
// (reopen, possibly with a torn tail), every key's fetched value must be >=
// the last value whose SAVE was acknowledged — otherwise the wake-up leap
// no longer covers the gap and sequence numbers could be reused.
func TestJournalNoCounterRegression(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	for _, torn := range []bool{false, true} {
		name := "clean"
		if torn {
			name = "torn-tail"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sa.journal")
			j, err := openLane(path)
			if err != nil {
				t.Fatalf("openLane: %v", err)
			}
			pool := NewSaverPool(8)

			const nKeys = 64
			acked := make([]uint64, nKeys) // last acknowledged save per key
			var ackMu sync.Mutex
			var wg sync.WaitGroup
			savers := make([]*PoolSaver, nKeys)
			for k := 0; k < nKeys; k++ {
				savers[k] = pool.Saver(j.Cell(fmt.Sprintf("sa/%03d", k)))
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(nKeys)
				v := uint64(i + 1)
				wg.Add(1)
				savers[k].StartSave(v, func(err error) {
					defer wg.Done()
					if err != nil {
						t.Errorf("save key %d: %v", k, err)
						return
					}
					ackMu.Lock()
					if v > acked[k] {
						acked[k] = v
					}
					ackMu.Unlock()
				})
			}
			wg.Wait()
			pool.Close()
			j.Close()

			if torn {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
				if err != nil {
					t.Fatalf("open for tear: %v", err)
				}
				if _, err := f.Write([]byte{0x01, 0x02}); err != nil {
					t.Fatalf("tear: %v", err)
				}
				f.Close()
			}

			j2, err := openLane(path)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer j2.Close()
			for k := 0; k < nKeys; k++ {
				if acked[k] == 0 {
					continue
				}
				got, ok, err := j2.Cell(fmt.Sprintf("sa/%03d", k)).Fetch()
				if err != nil || !ok {
					t.Fatalf("key %d: Fetch = (ok=%v, err=%v)", k, ok, err)
				}
				if got < acked[k] {
					t.Errorf("key %d: recovered %d < last acknowledged save %d — counter regressed", k, got, acked[k])
				}
			}
		})
	}
}

// slowSyncFS is a filesystem whose file fsyncs each take d longer, as a
// disk's do: a burst of saves queues behind the fsync in flight and the
// next commit takes it whole, the batching a real medium relies on.
type slowSyncFS struct {
	storefault.FS
	d time.Duration
}

func (s slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (storefault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.d}, nil
}

type slowSyncFile struct {
	storefault.File
	d time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.d)
	return f.File.Sync()
}

// TestJournalGroupCommit: concurrent saves must share fsyncs — that is the
// journal's reason to exist.
func TestJournalGroupCommit(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j := journalAt(t, LanesWithFS(slowSyncFS{storefault.OS(), 200 * time.Microsecond}))
	defer j.Close()
	base := j.stats().Syncs
	const goroutines, saves = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := j.Cell(fmt.Sprintf("tx/%d", g))
			for i := 1; i <= saves; i++ {
				if err := c.Save(uint64(i)); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := goroutines * saves
	syncs := j.stats().Syncs - base
	if syncs == 0 {
		t.Fatal("Syncs = 0, want > 0 (durable saves must fsync)")
	}
	if syncs >= uint64(total) {
		t.Errorf("Syncs = %d for %d saves, want group commit to share fsyncs", syncs, total)
	}
	if j.stats().Appends != uint64(total) {
		t.Errorf("Appends = %d, want %d", j.stats().Appends, total)
	}
}

func TestJournalWithoutSync(t *testing.T) {
	j := journalAt(t, LanesWithoutSync())
	defer j.Close()
	if err := j.Cell("a").Save(4); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := j.stats().Syncs; got != 0 {
		t.Errorf("Syncs = %d with LanesWithoutSync, want 0", got)
	}
	if v, ok, _ := j.Cell("a").Fetch(); !ok || v != 4 {
		t.Errorf("Fetch = (%d, %v), want (4, true)", v, ok)
	}
}

func TestJournalDeleteErasesKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sa.journal")
	j, err := openLane(path)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	c, err := j.ClaimCell("rx/1")
	if err != nil {
		t.Fatalf("ClaimCell: %v", err)
	}
	if err := c.Save(500); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := j.Delete("rx/1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, err := c.Fetch(); err != nil || ok {
		t.Errorf("Fetch after Delete = (ok=%v, err=%v), want (false, nil)", ok, err)
	}
	if j.stats().Keys != 0 {
		t.Errorf("Keys after Delete = %d, want 0", j.stats().Keys)
	}
	// Released, the key leaves the lane's table, but the old Cell still
	// reads and writes its one state: a fresh life under the same key must
	// not see the old counter, and a new Cell and a reopen both see the new
	// life.
	j.ReleaseCell("rx/1")
	if n := len(j.cells); n != 0 {
		t.Errorf("table holds %d cells after Delete and ReleaseCell, want 0", n)
	}
	if err := c.Save(1); err != nil {
		t.Fatalf("Save after Delete: %v", err)
	}
	for _, c := range []*Cell{c, j.Cell("rx/1")} {
		got, ok, err := c.Fetch()
		if err != nil || !ok || got != 1 {
			t.Errorf("Fetch of fresh life = (%d, %v, %v), want (1, true, nil)", got, ok, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j, err = openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if got, ok, err := j.Cell("rx/1").Fetch(); err != nil || !ok || got != 1 {
		t.Errorf("fresh life after reopen = (%d, %v, %v), want (1, true, nil)", got, ok, err)
	}
}

// TestJournalClaimChurnKeepsTableSize runs 100k distinct SA lives through
// one lane — claim, save, delete, release — and wants the lane's key table
// back at its size before the first: a retired, released key leaves it, so
// rekey churn does not grow a lane. The lives run a thousand at a time, each
// step staged for all of them and committed once.
func TestJournalClaimChurnKeepsTableSize(t *testing.T) {
	j := journalAt(t, LanesWithoutSync())
	defer j.Close()
	if _, err := j.ClaimCell("cluster/epoch"); err != nil { // one key that stays
		t.Fatal(err)
	}
	base := len(j.cells)
	cells := make([]*Cell, 1000)
	stage := func(c *Cell, v uint64, del bool) uint64 {
		t.Helper()
		seq, staged, err := c.stage(v, del)
		if err != nil || !staged {
			t.Fatalf("stage(%d, %v) = staged %v, %v", v, del, staged, err)
		}
		return seq
	}
	for round := 0; round < 100; round++ {
		var seq uint64
		for i := range cells {
			key := fmt.Sprintf("tx/%08x", round*len(cells)+i)
			c, err := j.ClaimCell(key)
			if err != nil {
				t.Fatalf("ClaimCell(%s): %v", key, err)
			}
			cells[i], seq = c, stage(c, uint64(i+1), false)
		}
		if err := j.waitDurable(seq); err != nil {
			t.Fatalf("save round %d: %v", round, err)
		}
		for _, c := range cells {
			seq = stage(c, 0, true)
		}
		if err := j.waitDurable(seq); err != nil {
			t.Fatalf("tombstone round %d: %v", round, err)
		}
		for _, c := range cells {
			c.claim(false) //nolint:errcheck // a release has no error
		}
	}
	if n := len(j.cells); n != base {
		t.Fatalf("table holds %d cells after the churn, want %d", n, base)
	}
	if n := j.stats().Keys; n != 0 {
		t.Fatalf("Keys = %d after the churn, want 0", n)
	}
}

func TestJournalDeleteSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sa.journal")
	j, err := openLane(path)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	if err := j.Cell("tx/old").Save(4096); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := j.Cell("tx/live").Save(77); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := j.Delete("tx/old"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if _, ok, _ := j2.Cell("tx/old").Fetch(); ok {
		t.Error("deleted key resurrected after reopen")
	}
	got, ok, err := j2.Cell("tx/live").Fetch()
	if err != nil || !ok || got != 77 {
		t.Errorf("live key after reopen = (%d, %v, %v), want (77, true, nil)", got, ok, err)
	}
	// Delete-then-save sequences replay in order: the post-tombstone life
	// wins even though its values are smaller than the retired life's.
	if err := j2.Cell("tx/old").Save(3); err != nil {
		t.Fatalf("Save fresh life: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3, err := openLane(path)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer j3.Close()
	got, ok, err = j3.Cell("tx/old").Fetch()
	if err != nil || !ok || got != 3 {
		t.Errorf("fresh life after reopen = (%d, %v, %v), want (3, true, nil)", got, ok, err)
	}
}

func TestJournalCompactionDropsDeletedKeys(t *testing.T) {
	// Compaction threshold low enough that the retired keys' records would
	// dominate the snapshot if tombstones failed to erase them.
	j := journalAt(t, LanesCompactAt(1024))
	defer j.Close()
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		if err := j.Cell(key).Save(uint64(100 + i)); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if i%2 == 0 {
			if err := j.Delete(key); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
	}
	// Push the log past the threshold so a compaction runs.
	for i := 0; i < 64; i++ {
		if err := j.Cell("rx/keep").Save(uint64(i + 1)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if j.stats().Compactions == 0 {
		t.Fatal("no compaction ran; lower the threshold")
	}
	if got, want := j.stats().Keys, 16+1; got != want {
		t.Errorf("Keys after compaction = %d, want %d", got, want)
	}
	for i := 0; i < 32; i += 2 {
		if _, ok, _ := j.Cell(fmt.Sprintf("rx/%08x", i)).Fetch(); ok {
			t.Errorf("deleted key rx/%08x survived compaction", i)
		}
	}
}

func TestJournalDeleteUnknownKeyNoOp(t *testing.T) {
	j := journalAt(t)
	defer j.Close()
	before := j.stats().Appends
	if err := j.Delete("never/saved"); err != nil {
		t.Fatalf("Delete unknown: %v", err)
	}
	if j.stats().Appends != before {
		t.Error("deleting an unknown key appended a record")
	}
}
