package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Crash-during-compaction coverage at lane granularity. A lane compaction
// crash has three observable shapes on disk:
//
//  1. a torn temp segment (lane-NNN.log.compact*) next to an intact log —
//     the crash hit before the rename;
//  2. one lane fully compacted (renamed) while a neighbor died mid-write —
//     compactions are per lane, so the interleaving is real;
//  3. a renamed-but-torn log — the narrow window where the rename's
//     directory entry became durable ahead of the temp file's tail.
//
// Recovery must shrug at 1 and 2 (the temp is garbage by construction; the
// renamed lane is self-contained) and handle 3 exactly like a torn tail.

// rawJournalFile writes a journal file from whole cloth: the header, then
// the provided frames.
func rawJournalFile(t *testing.T, path string, frames []byte) {
	t.Helper()
	if err := os.WriteFile(path, append(appendHeader(nil), frames...), 0o600); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// populateLanes saves gens generations of n SA counters and returns the
// final values plus each lane's owned keys (captured while the instance is
// open; the hash outlives it).
func populateLanes(t *testing.T, l *Lanes, n, gens int) (map[string]uint64, map[int][]string) {
	t.Helper()
	want := make(map[string]uint64, n)
	owned := make(map[int][]string)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		for g := 1; g <= gens; g++ {
			if err := l.Cell(key).Save(uint64(i*gens + g)); err != nil {
				t.Fatalf("Save %s: %v", key, err)
			}
		}
		want[key] = uint64(i*gens + gens)
		lane := l.laneOf(key)
		owned[lane] = append(owned[lane], key)
	}
	return want, owned
}

// TestLanesCrashTornTempSegment: a crash before the rename leaves a torn
// temp next to an intact lane log. Recovery must ignore it completely — no
// dropped frames, no torn tail, every counter intact — and the lane must
// still compact for real afterwards.
func TestLanesCrashTornTempSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(4), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	want, _ := populateLanes(t, l, 64, 8)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The torn temp: half a compacted snapshot, cut mid-frame.
	frames := appendRecord(nil, "rx/00000000", 1, false)
	frames = append(frames, appendRecord(nil, "rx/00000001", 2, false)[:7]...)
	rawJournalFile(t, filepath.Join(dir, laneFileName(1)+".compact123456"), frames)

	l2, err := OpenLanes(dir, LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen with torn temp: %v", err)
	}
	if rs := l2.RecoveryStats(); rs.FramesDropped != 0 || rs.TornTail {
		t.Errorf("RecoveryStats with stray temp = %+v, want clean", rs)
	}
	got := l2.Values()
	for key, v := range want {
		if got[key] != v {
			t.Fatalf("Values[%s] = %d, want %d", key, got[key], v)
		}
	}
	l2.Close()

	// The interrupted lane still compacts: reopen with a tiny threshold and
	// push one save through its most redundant keys.
	l3, err := OpenLanes(dir, LanesWithoutSync(), LanesCompactAt(1))
	if err != nil {
		t.Fatalf("reopen for compaction: %v", err)
	}
	defer l3.Close()
	for key := range want {
		if err := l3.Cell(key).Save(want[key] + 1); err != nil {
			t.Fatalf("post-crash Save %s: %v", key, err)
		}
	}
	if l3.Compactions() == 0 {
		t.Error("no lane compacted after the crash; threshold plumbing broken")
	}
}

// TestLanesCrashRenameInterleaving: lane 1's compaction completed (its log
// is the renamed snapshot) while lane 2 died mid-compaction (old log plus
// torn temp). Per-lane compaction makes this interleaving an ordinary crash
// state; recovery must read both lanes to the same values.
func TestLanesCrashRenameInterleaving(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(4), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	want, owned := populateLanes(t, l, 64, 8)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Lane 1: the compacted snapshot fully renamed over the log.
	var frames []byte
	for _, key := range owned[1] {
		frames = appendRecord(frames, key, want[key], false)
	}
	rawJournalFile(t, filepath.Join(dir, laneFileName(1)), frames)

	// Lane 2: untouched log, torn temp alongside.
	var torn []byte
	for _, key := range owned[2] {
		torn = appendRecord(torn, key, want[key], false)
	}
	if len(torn) < 10 {
		t.Fatal("lane 2 owns too few keys for a torn temp; raise the key count")
	}
	rawJournalFile(t, filepath.Join(dir, laneFileName(2)+".compact777"), torn[:len(torn)-10])

	l2, err := OpenLanes(dir, LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rs := l2.RecoveryStats(); rs.FramesDropped != 0 || rs.TornTail {
		t.Errorf("RecoveryStats = %+v, want clean", rs)
	}
	got := l2.Values()
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for key, v := range want {
		if got[key] != v {
			t.Fatalf("Values[%s] = %d, want %d", key, got[key], v)
		}
	}
}

// TestLanesCrashTornRenamedSegment: the renamed log itself is torn — the
// compaction temp's tail never reached disk but the rename did. The lane
// must recover as a torn tail (complete frames kept, tear truncated,
// TornTail reported) and stay writable. The subtest is named for the frame
// format.
func TestLanesCrashTornRenamedSegment(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		dir := t.TempDir()
		l, err := OpenLanes(dir, LanesCount(4), LanesWithoutSync())
		if err != nil {
			t.Fatalf("OpenLanes: %v", err)
		}
		want, owned := populateLanes(t, l, 64, 4)
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// Lane 3's log becomes a compacted snapshot whose last frame is
		// cut short.
		keys := owned[3]
		if len(keys) < 2 {
			t.Fatal("lane 3 owns too few keys; raise the key count")
		}
		var frames []byte
		for _, key := range keys {
			frames = appendRecord(frames, key, want[key], false)
		}
		rawJournalFile(t, filepath.Join(dir, laneFileName(3)), frames[:len(frames)-5])

		l2, err := OpenLanes(dir, LanesWithoutSync())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		rs := l2.RecoveryStats()
		if !rs.TornTail {
			t.Error("RecoveryStats.TornTail = false, want true")
		}
		if rs.FramesDropped != 0 {
			t.Errorf("FramesDropped = %d, want 0 (a tear is not mid-log corruption)", rs.FramesDropped)
		}
		got := l2.Values()
		lost := keys[len(keys)-1] // only the cut frame's key may be short
		for key, v := range want {
			switch {
			case key == lost:
				if got[key] > v {
					t.Fatalf("torn key %s = %d, above its true value %d", key, got[key], v)
				}
			case got[key] != v:
				t.Fatalf("Values[%s] = %d, want %d", key, got[key], v)
			}
		}

		// The torn lane accepts writes and they survive another reopen.
		if err := l2.Cell(lost).Save(want[lost] + 100); err != nil {
			t.Fatalf("Save on recovered torn lane: %v", err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l3, err := OpenLanes(dir, LanesWithoutSync())
		if err != nil {
			t.Fatalf("third open: %v", err)
		}
		defer l3.Close()
		if v, ok, err := l3.Cell(lost).Fetch(); err != nil || !ok || v != want[lost]+100 {
			t.Fatalf("Fetch(%s) = (%d, %v, %v), want (%d, true, nil)", lost, v, ok, err, want[lost]+100)
		}
	})
}
