package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"antireplay/internal/storefault"
)

// overLaneCounts runs fn over the single-journal form of the medium
// (LanesCount(1)) and over n lanes: what holds of the medium holds of both.
func overLaneCounts(t *testing.T, n int, fn func(t *testing.T, lanes int)) {
	for _, lanes := range []int{1, n} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { fn(t, lanes) })
	}
}

// TestLanesRouting pins the lane hash: deterministic, full coverage at the
// default width, and for SA keys the top bits of the SPI's Fibonacci
// multiply, both directions of a tunnel in one lane. The route is on disk,
// so it must never change. With one lane every key routes to lane 0.
func TestLanesRouting(t *testing.T) {
	overLaneCounts(t, 64, func(t *testing.T, lanes int) {
		l, err := OpenLanes(t.TempDir(), LanesCount(lanes), LanesWithoutSync())
		if err != nil {
			t.Fatalf("OpenLanes: %v", err)
		}
		defer l.Close()

		used := make(map[int]bool)
		for spi := uint32(0); spi < 4096; spi++ {
			key := fmt.Sprintf("tx/%08x", spi)
			lane := l.laneOf(key)
			if lane != l.laneOf(key) {
				t.Fatalf("laneOf(%q) not deterministic", key)
			}
			// A 32-bit shift by 32 - 0 is 0 in Go, so the one-lane form is
			// the same expression.
			if want := int((spi * 2654435761) >> (32 - l.laneBits)); lane != want {
				t.Fatalf("laneOf(%q) = %d, want lane %d", key, lane, want)
			}
			if rx := l.laneOf(fmt.Sprintf("rx/%08x", spi)); rx != lane {
				t.Fatalf("rx lane %d != tx lane %d for SPI %#x", rx, lane, spi)
			}
			used[lane] = true
		}
		if len(used) != lanes {
			t.Errorf("4096 SPIs hit %d/%d lanes", len(used), lanes)
		}
		// Non-SA keys route too, inside bounds.
		if lane := l.laneOf("cluster/epoch"); lane < 0 || lane >= lanes {
			t.Errorf("generic key lane = %d, out of range", lane)
		}
	})
}

// TestLanesValuesAndClaims exercises the medium's surface over one lane and
// over many: saves land in the owning lane, Values merges disjoint lanes,
// claims are per-key, and deletes retire durably.
func TestLanesValuesAndClaims(t *testing.T) {
	overLaneCounts(t, 8, testLanesValuesAndClaims)
}

func testLanesValuesAndClaims(t *testing.T, lanes int) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(lanes), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		if err := l.Cell(key).Save(uint64(i + 1)); err != nil {
			t.Fatalf("Save %s: %v", key, err)
		}
	}
	if got := l.Keys(); got != n {
		t.Fatalf("Keys = %d, want %d", got, n)
	}
	vals := l.Values()
	if len(vals) != n {
		t.Fatalf("Values len = %d, want %d", len(vals), n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		if vals[key] != uint64(i+1) {
			t.Fatalf("Values[%s] = %d, want %d", key, vals[key], i+1)
		}
	}

	if _, err := l.ClaimCell("rx/00000000"); err != nil {
		t.Fatalf("ClaimCell: %v", err)
	}
	if _, err := l.ClaimCell("rx/00000000"); !errors.Is(err, ErrCellClaimed) {
		t.Fatalf("double claim = %v, want ErrCellClaimed", err)
	}
	l.ReleaseCell("rx/00000000")
	if _, err := l.ClaimCell("rx/00000000"); err != nil {
		t.Fatalf("reclaim after release: %v", err)
	}

	if err := l.Delete("rx/00000001"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the deleted key stays gone, everything else recovers in place.
	l2, err := OpenLanes(dir, LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.LaneCount(); got != lanes {
		t.Fatalf("reopened LaneCount = %d, want manifest's %d", got, lanes)
	}
	if _, ok, _ := l2.Cell("rx/00000001").Fetch(); ok {
		t.Error("deleted key survived reopen")
	}
	if v, ok, err := l2.Cell(fmt.Sprintf("rx/%08x", n-1)).Fetch(); err != nil || !ok || v != n {
		t.Errorf("Fetch after reopen = (%d, %v, %v), want (%d, true, nil)", v, ok, err, n)
	}
	if rs := l2.RecoveryStats(); rs.FramesDropped != 0 || rs.TornTail {
		t.Errorf("clean reopen RecoveryStats = %+v", rs)
	}
}

// TestLanesManifestAuthoritative: a reopen with a different LanesCount must
// use the manifest's count — the key→lane hash has to match the files.
func TestLanesManifestAuthoritative(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(4), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	if err := l.Cell("tx/0000beef").Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	l.Close()

	l2, err := OpenLanes(dir, LanesCount(64), LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.LaneCount(); got != 4 {
		t.Fatalf("LaneCount = %d, want the manifest's 4 (LanesCount(64) ignored)", got)
	}
	if v, ok, err := l2.Cell("tx/0000beef").Fetch(); err != nil || !ok || v != 7 {
		t.Fatalf("Fetch = (%d, %v, %v), want (7, true, nil)", v, ok, err)
	}
}

// TestLanesManifestCorrupt: a damaged manifest refuses to open — guessing a
// lane count would silently misroute every key.
func TestLanesManifestCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(4), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	l.Close()
	path := filepath.Join(dir, laneManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	data[6] ^= 0xFF // lane count byte: CRC must catch it
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if _, err := OpenLanes(dir, LanesWithoutSync()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt manifest = %v, want ErrCorrupt", err)
	}
}

// TestLanesBadCount rejects non-power-of-two and out-of-range lane counts.
func TestLanesBadCount(t *testing.T) {
	for _, n := range []int{0, -1, 3, 48, maxLaneCount * 2} {
		if _, err := OpenLanes(t.TempDir(), LanesCount(n)); err == nil {
			t.Errorf("OpenLanes(LanesCount(%d)) succeeded, want error", n)
		}
	}
}

// TestLanesFence: fencing the medium fences every lane, and Fenced reports
// it regardless of which lane a probe write lands on.
func TestLanesFence(t *testing.T) {
	overLaneCounts(t, 8, func(t *testing.T, lanes int) {
		l, err := OpenLanes(t.TempDir(), LanesCount(lanes), LanesWithoutSync())
		if err != nil {
			t.Fatalf("OpenLanes: %v", err)
		}
		defer l.Close()
		if err := l.Cell("tx/00000001").Save(1); err != nil {
			t.Fatalf("Save: %v", err)
		}
		l.Fence(nil)
		if err := l.Fenced(); !errors.Is(err, ErrFenced) {
			t.Fatalf("Fenced = %v, want ErrFenced", err)
		}
		for i := 0; i < 32; i++ {
			key := fmt.Sprintf("tx/%08x", i)
			if err := l.Cell(key).Save(99); !errors.Is(err, ErrFenced) {
				t.Fatalf("Save(%s) on fenced medium = %v, want ErrFenced", key, err)
			}
		}
	})
}

// TestLanesCellLaneReporting: a cell reports its commit lane (the SaverPool
// routes on it) — lane 0 in the single-journal form.
func TestLanesCellLaneReporting(t *testing.T) {
	overLaneCounts(t, 16, func(t *testing.T, lanes int) {
		l, err := OpenLanes(t.TempDir(), LanesCount(lanes), LanesWithoutSync())
		if err != nil {
			t.Fatalf("OpenLanes: %v", err)
		}
		defer l.Close()
		for spi := uint32(0); spi < 256; spi++ {
			key := fmt.Sprintf("tx/%08x", spi)
			got, want := l.Cell(key).Lane(), l.laneOf(key)
			if got != want || got < 0 || got >= lanes {
				t.Fatalf("Cell(%s).Lane() = %d, want %d within [0, %d)", key, got, want, lanes)
			}
		}
	})
}

// TestLanesManifestCrash: a reset while a fresh directory's manifest is
// being published must not brick the directory. Whatever step the fault
// hits, the manifest is afterwards absent or complete, so the next open
// starts over (or adopts it) — nothing was ever saved. A short manifest
// beside lane files is still refused: there the lane count is load-bearing.
func TestLanesManifestCrash(t *testing.T) {
	faults := map[string]storefault.Fault{
		"torn write":      {Op: storefault.OpWrite, Path: laneManifestName, Count: 1, Short: 5},
		"failed write":    {Op: storefault.OpWrite, Path: laneManifestName, Count: 1},
		"failed sync":     {Op: storefault.OpSync, Path: laneManifestName, Count: 1},
		"failed rename":   {Op: storefault.OpRename, Path: laneManifestName, Count: 1},
		"failed dir sync": {Op: storefault.OpSyncDir, Count: 1},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			in := storefault.NewInjector(nil)
			in.Arm(fault)
			if _, err := OpenLanes(dir, LanesCount(4), LanesWithFS(in)); !errors.Is(err, ErrInjected) {
				t.Fatalf("OpenLanes under %s = %v, want ErrInjected", name, err)
			}
			if data, err := os.ReadFile(filepath.Join(dir, laneManifestName)); err == nil && len(data) != laneManifestLen {
				t.Fatalf("manifest left %d bytes long, want absent or complete (%d)", len(data), laneManifestLen)
			}
			if _, err := os.Stat(filepath.Join(dir, laneFileName(0))); !os.IsNotExist(err) {
				t.Fatalf("lane file exists before the manifest was durable (stat err %v)", err)
			}
			reopenFresh(t, dir, in)
		})
	}

	t.Run("stranded temp", func(t *testing.T) {
		// What kill -9 mid-write leaves: a torn temp nobody cleaned up.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, laneManifestName+".tmp"), []byte("ARJM\x00"), 0o600); err != nil {
			t.Fatal(err)
		}
		reopenFresh(t, dir, nil)
	})

	t.Run("short beside lane files", func(t *testing.T) {
		dir := t.TempDir()
		reopenFresh(t, dir, nil)
		if err := os.Truncate(filepath.Join(dir, laneManifestName), 5); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLanes(dir, LanesCount(4)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open with a short manifest beside lane files = %v, want ErrCorrupt", err)
		}
	})
}

// reopenFresh opens dir as a fresh four-lane medium, saves through it, and
// checks a second open adopts the manifest and recovers the value.
func reopenFresh(t *testing.T, dir string, fsys storefault.FS) {
	t.Helper()
	for pass, want := range []bool{false, true} {
		l, err := OpenLanes(dir, LanesCount(4), LanesWithFS(fsys))
		if err != nil {
			t.Fatalf("open %d after the crash: %v", pass, err)
		}
		if got := l.LaneCount(); got != 4 {
			t.Fatalf("open %d: LaneCount = %d, want 4", pass, got)
		}
		if v, ok, err := l.Cell("tx/0000beef").Fetch(); err != nil || ok != want || (ok && v != 7) {
			t.Fatalf("open %d: Fetch = (%d, %v, %v), want present=%v", pass, v, ok, err, want)
		}
		if err := l.Cell("tx/0000beef").Save(7); err != nil {
			t.Fatalf("open %d: Save: %v", pass, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("open %d: Close: %v", pass, err)
		}
	}
}

// TestLanesKeyTables drives one script — save, raise, stale save, tombstone,
// re-save, Tail to Apply, repair from a donor medium, close, reopen, claim
// twice — over packed SA keys, their near misses (named keys that must stay
// distinct) and a generic named key, all in the same lane. Every key is one
// word in one table: packed or interned, it must be indistinguishable from
// outside, on disk, across replication and across recovery. Reading or
// releasing an absent key changes nothing visible, and a donor medium with
// another lane count is refused.
func TestLanesKeyTables(t *testing.T) {
	keys := []string{
		"rx/0000002a", // packed
		"tx/0000002a", // packed: same SPI, other direction
		"rx/0000002A", // upper-case hex: not the pinned shape
		"rx/2a",       // short
		"sa/0000002a", // wrong namespace
		"probe/t-save",
	}

	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(1), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	// The follower medium: it applies l's record stream, then donates to
	// l's repair.
	f, err := OpenLanes(t.TempDir(), LanesCount(1), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer f.Close()

	// Words, on a scratch lane so interning them leaves l and f alone.
	j := journalAt(t, LanesWithoutSync())
	defer j.Close()
	for i, k := range keys {
		w := wordOf(j, k)
		if packed := w&packedMark != 0; packed != (i < 2) || packed == (w&namedMark != 0) {
			t.Fatalf("wordOf(%q) = %#x, want packed %v", k, w, i < 2)
		}
		if got := string(j.appendKey(nil, w)); got != k {
			t.Fatalf("appendKey(wordOf(%q)) = %q", k, got)
		}
		if again, bw := wordOf(j, k), wordOf(j, []byte(k)); again != w || bw != w {
			t.Fatalf("wordOf(%q) = %#x, then %#x, as bytes %#x", k, w, again, bw)
		}
	}
	if len(j.names) != len(keys)-2 {
		t.Fatalf("interned %d names, want %d", len(j.names), len(keys)-2)
	}
	for _, spi := range []uint32{0, 1, 0x2a, 0xdeadbeef, 0xffffffff} {
		for _, dir := range []string{"tx", "rx"} {
			k := fmt.Sprintf("%s/%08x", dir, spi)
			if pk, ok := packKey(k); !ok || string(j.appendKey(nil, pk)) != k {
				t.Fatalf("packKey/appendKey(%q) = (%#x, %v) -> %q", k, pk, ok, j.appendKey(nil, pk))
			}
		}
	}

	tl, err := l.LaneJournals()[0].Follow()
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	// Every key gets its own value band, so two keys aliasing one slot
	// would show as the wrong (larger) value on one of them.
	band := func(i int) uint64 { return uint64(1000 * (i + 1)) }
	check := func(l *Lanes, step string, off uint64, present bool) {
		t.Helper()
		vals := l.Values()
		for i, k := range keys {
			v, ok, err := l.Cell(k).Fetch()
			if err != nil || ok != present || (ok && v != band(i)+off) {
				t.Fatalf("%s: Fetch(%q) = (%d, %v, %v), want (%d, %v, nil)", step, k, v, ok, err, band(i)+off, present)
			}
			if got, listed := vals[k]; listed != present || (listed && got != band(i)+off) {
				t.Fatalf("%s: Values[%q] = (%d, %v), want (%d, %v)", step, k, got, listed, band(i)+off, present)
			}
		}
		want := 0
		if present {
			want = len(keys)
		}
		if l.Keys() != want || len(vals) != want {
			t.Fatalf("%s: Keys = %d, len(Values) = %d, want %d", step, l.Keys(), len(vals), want)
		}
	}
	saveAll := func(l *Lanes, step string, off uint64) {
		t.Helper()
		for i, k := range keys {
			if err := l.Cell(k).Save(band(i) + off); err != nil {
				t.Fatalf("%s: Save(%q): %v", step, k, err)
			}
		}
	}
	check(l, "empty", 0, false)
	saveAll(l, "save", 5)
	check(l, "save", 5, true)
	for _, k := range []string{"absent/named", "tx/0000beef"} {
		if v, ok, err := l.Cell(k).Fetch(); ok || err != nil {
			t.Fatalf("Fetch(%q) of an absent key = (%d, %v, %v)", k, v, ok, err)
		}
		l.ReleaseCell(k)
	}
	check(l, "absent fetch and release", 5, true)
	saveAll(l, "raise", 9)
	check(l, "raise", 9, true)
	saveAll(l, "stale save", 7)
	check(l, "stale save", 9, true) // the live value is the maximum of a life
	for _, k := range keys {
		if err := l.Delete(k); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	check(l, "tombstone", 0, false)
	saveAll(l, "re-save", 3)
	check(l, "re-save", 3, true) // a fresh life, below the retired one
	if err := f.LaneJournals()[0].Apply(drainTail(t, tl)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	tl.Close()
	check(f, "apply", 3, true)

	two, err := OpenLanes(t.TempDir(), LanesCount(2), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer two.Close()
	if err := l.RepairLane(0, two); err == nil {
		t.Fatal("RepairLane accepted a donor with 2 lanes for a 1-lane medium")
	}
	saveAll(f, "donor", 8)
	if err := l.RepairLane(0, f); err != nil { // on a healthy lane: a forced compaction
		t.Fatalf("RepairLane: %v", err)
	}
	if got := l.Compactions(); got != 1 {
		t.Fatalf("Compactions = %d, want 1", got)
	}
	if got, want := l.LogSize(), int64(journalHeaderLen); got <= want {
		t.Fatalf("LogSize after compaction = %d, want one record per key above the %d-byte header", got, want)
	}
	check(l, "repair", 8, true) // max-wins with the donor
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l, err = OpenLanes(dir, LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if rs := l.RecoveryStats(); rs.FramesReplayed != uint64(len(keys)) || rs.FramesDropped != 0 || rs.TornTail {
		t.Fatalf("RecoveryStats = %+v, want %d frames replayed from the compacted log", rs, len(keys))
	}
	check(l, "reopen", 8, true)
	for _, k := range keys {
		if _, err := l.ClaimCell(k); err != nil {
			t.Fatalf("ClaimCell(%q): %v", k, err)
		}
	}
	for _, k := range keys {
		if _, err := l.ClaimCell(k); !errors.Is(err, ErrCellClaimed) {
			t.Fatalf("second ClaimCell(%q) = %v, want ErrCellClaimed", k, err)
		}
		l.ReleaseCell(k)
		if _, err := l.ClaimCell(k); err != nil {
			t.Fatalf("ClaimCell(%q) after release: %v", k, err)
		}
	}
}
