package store

import (
	"fmt"
	"testing"
)

// packKeyOracle is the parser packKey replaced, a branch per hex digit: the
// reference its table lookup must agree with on every input.
func packKeyOracle(k string) (uint64, bool) {
	if len(k) != spiKeyLen || k[2] != '/' || k[1] != 'x' {
		return 0, false
	}
	var pk uint64
	switch k[0] {
	case 't':
	case 'r':
		pk = packedRxBit
	default:
		return 0, false
	}
	var spi uint64
	for i := 3; i < spiKeyLen; i++ {
		c := k[i]
		switch {
		case c >= '0' && c <= '9':
			spi = spi<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			spi = spi<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return packedMark | pk | spi, true
}

// TestPackKeyMatchesOracle: packKey, over a string or the same bytes, gives
// the oracle's word and verdict for every byte value at every position of
// both prefixes' keys, and for keys one byte short or long. A key that
// misses the pinned shape by one byte still interns as a named key.
func TestPackKeyMatchesOracle(t *testing.T) {
	check := func(k string) {
		t.Helper()
		want, wantOK := packKeyOracle(k)
		if w, ok := packKey(k); w != want || ok != wantOK {
			t.Fatalf("packKey(%q) = (%#x, %v), oracle (%#x, %v)", k, w, ok, want, wantOK)
		}
		if w, ok := packKey([]byte(k)); w != want || ok != wantOK {
			t.Fatalf("packKey([]byte(%q)) = (%#x, %v), oracle (%#x, %v)", k, w, ok, want, wantOK)
		}
	}
	for _, base := range []string{"tx/09afc3e7", "rx/09afc3e7"} {
		for pos := 0; pos < spiKeyLen; pos++ {
			for c := 0; c < 256; c++ {
				k := []byte(base)
				k[pos] = byte(c)
				check(string(k))
			}
		}
		for _, n := range []int{10, 11, 12} {
			check((base + "0")[:n])
		}
	}

	j := journalAt(t, LanesWithoutSync())
	defer j.Close()
	for _, k := range []string{"rx/0000002A", "tx-0000002a", "tx/0000002g", "rx/0000002a0", "rx/000002a"} {
		if w := wordOf(j, k); w&namedMark == 0 || string(j.appendKey(nil, w)) != k {
			t.Errorf("wordOf(%q) = %#x: want an interned name that spells the key", k, w)
		}
	}
}

// fillLanes saves each of keys SA keys rounds times through a medium with
// opts (without sync) at dir, staging one round across every key before
// waiting, as the saver pool does, and closes it. It returns the most keys
// any one lane holds: one round's batch on that lane.
func fillLanes(tb testing.TB, dir string, keys, rounds int, opts ...LanesOption) (maxLaneKeys int) {
	tb.Helper()
	l, err := OpenLanes(dir, append([]LanesOption{LanesWithoutSync()}, opts...)...)
	if err != nil {
		tb.Fatalf("OpenLanes: %v", err)
	}
	cells := make([]*Cell, keys)
	for i := range cells {
		cells[i] = l.Cell(fmt.Sprintf("tx/%08x", uint32(i)*0x9e3779b9))
	}
	seqs := make([]uint64, keys)
	for r := 1; r <= rounds; r++ {
		for i, c := range cells {
			if seqs[i], err = c.Stage(uint64(r)); err != nil {
				tb.Fatalf("Stage: %v", err)
			}
		}
		for i, c := range cells {
			if err := c.WaitDurable(seqs[i]); err != nil {
				tb.Fatalf("WaitDurable: %v", err)
			}
		}
	}
	for _, s := range l.LaneStats() {
		maxLaneKeys = max(maxLaneKeys, s.Keys)
	}
	if err := l.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return maxLaneKeys
}

// TestReplayBoundedByLiveState: a reopen replays what the medium holds, not
// how long it ran. 2,048 SA keys saved 50 times each write ~100k frames (2.5
// MB), where the live state is 50 KiB. Each lane's snapshot is ~6 KiB, so a
// lane may replay at most 64 KiB of frames plus the one batch that crossed
// it: the default medium must compact its lanes at that size.
func TestReplayBoundedByLiveState(t *testing.T) {
	const keys, rounds = 2048, 50
	dir := t.TempDir()
	batch := fillLanes(t, dir, keys, rounds)
	l, err := OpenLanes(dir, LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if l.Keys() != keys {
		t.Fatalf("reopen recovered %d keys, want %d", l.Keys(), keys)
	}
	for k, v := range l.Values() {
		if v != rounds {
			t.Fatalf("reopen recovered %s = %d, want %d", k, v, rounds)
		}
	}
	lanes := l.LaneCount()
	bound := uint64(lanes * (64<<10/(minRecordLen+spiKeyLen) + batch))
	got := l.RecoveryStats().FramesReplayed
	if got > bound {
		t.Fatalf("reopen replayed %d frames for %d live keys over %d lanes, want <= %d", got, keys, lanes, bound)
	}
	t.Logf("reopen replayed %d frames for %d live keys (bound %d, %d saved)", got, keys, bound, keys*rounds)
}
