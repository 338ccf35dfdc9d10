package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"antireplay/internal/raceflag"
	"antireplay/internal/telemetry"
)

// TestZeroAllocJournalSave pins the commit pipeline's allocation contract:
// a steady-state Cell.Save — encode into the staging slab under the mutex,
// elected commit, watermark ack — allocates nothing per record once the
// staging slabs have warmed up. (Skipped under -race: the detector's
// instrumentation allocates.)
func TestZeroAllocJournalSave(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"),
		LanesWithoutSync(), LanesCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cell := j.Cell("rx/0000002a")
	v := uint64(0)
	// Warm up: the staging and spare slabs reach their steady capacities.
	for i := 0; i < 64; i++ {
		v++
		if err := cell.Save(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(2000, func() {
		v++
		if err := cell.Save(v); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("journal save allocates %v per op, want 0", got)
	}
}

// TestZeroAllocLanesSave extends the gate to the laned medium: routing a
// key to its lane, the packed-key staging path (compact cells are always on
// under Lanes), and the lane's commit must together stay allocation-free
// per steady-state save.
func TestZeroAllocLanesSave(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	l, err := OpenLanes(t.TempDir(),
		LanesCount(16), LanesWithoutSync(), LanesCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Cells across several lanes, saved round-robin, so the gate covers the
	// routed path rather than one warmed lane.
	cells := make([]*Cell, 8)
	for i := range cells {
		cells[i] = l.Cell(fmt.Sprintf("rx/%08x", i*37+1))
	}
	v := uint64(0)
	for i := 0; i < 64*len(cells); i++ {
		v++
		if err := cells[i%len(cells)].Save(v); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if got := testing.AllocsPerRun(2000, func() {
		v++
		i++
		if err := cells[i%len(cells)].Save(v); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("laned save allocates %v per op, want 0", got)
	}
}

// TestZeroAllocInstrumentedJournalSave is the telemetry-attached variant:
// the medium (its single-journal form) registered as a /metrics collector,
// scraped before and after the measured window. Collection is read-side
// (the scrape reads the lanes' existing counters), so a steady-state
// Cell.Save must still allocate nothing per record with the instruments
// live.
func TestZeroAllocInstrumentedJournalSave(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	j, err := OpenLanes(t.TempDir(), LanesCount(1), LanesWithoutSync(), LanesCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reg := telemetry.NewRegistry()
	reg.RegisterCollector("apn_journal", j)

	scrapeAppends := func() float64 {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "apn_journal_appends_total "); ok {
				var v float64
				fmt.Sscanf(rest, "%g", &v) //nolint:errcheck // zero on parse failure fails the growth check
				return v
			}
		}
		t.Fatal("scrape missing apn_journal_appends_total")
		return 0
	}

	cell := j.Cell("rx/0000002a")
	v := uint64(0)
	for i := 0; i < 64; i++ {
		v++
		if err := cell.Save(v); err != nil {
			t.Fatal(err)
		}
	}
	before := scrapeAppends()
	if got := testing.AllocsPerRun(2000, func() {
		v++
		if err := cell.Save(v); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("instrumented journal save allocates %v per op, want 0", got)
	}
	if after := scrapeAppends(); after <= before {
		t.Errorf("appends_total stuck at %v, instruments not live", after)
	}
}

// TestZeroAllocReplay pins replay's allocation contract: reopening a lane
// of 100k records over 1k packed SA keys and one named key allocates per
// open and per key (the file read, the presized table, the interned name,
// a Cell a key), not per record. A string materialized per record would
// read at least 1.
func TestZeroAllocReplay(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const records, packed = 100_000, 1000
	var frames []byte
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("tx/%08x", i%packed)
		if i%(packed+1) == packed {
			key = "cluster/epoch"
		}
		frames = appendRecord(frames, key, uint64(i), false)
	}
	path := filepath.Join(t.TempDir(), "lane.log")
	rawJournalFile(t, path, frames)
	perRecord := testing.AllocsPerRun(3, func() {
		j, err := openLane(path, LanesWithoutSync())
		if err != nil {
			t.Fatal(err)
		}
		if n := j.stats().Keys; n != packed+1 {
			t.Fatalf("replayed %d keys, want %d", n, packed+1)
		}
		j.Close()
	}) / records
	if perRecord > 1.0/16 {
		t.Errorf("replay allocates %.4f per record, want <= 1/16", perRecord)
	}
	t.Logf("replay allocates %.4f per record", perRecord)
}

// TestReplicatedRecordAllocs logs what one save costs the allocator with a
// sync follower attached: the save on the primary lane, its delivery
// through Tail.Recv, the follower lane's Apply and the Ack that releases
// the save. The ring keeps a record's key as its word, so the one object a
// record may cost is the key string Recv spells for an SA key.
func TestReplicatedRecordAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	dir := t.TempDir()
	opts := []LanesOption{LanesWithoutSync(), LanesCompactAt(0)}
	src, err := openLane(filepath.Join(dir, "src.log"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := openLane(filepath.Join(dir, "dst.log"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	tl, err := src.Follow()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]TailRecord, 16)
		for {
			n, err := tl.Recv(buf)
			if err != nil {
				done <- nil
				return
			}
			if err := dst.Apply(buf[:n]); err != nil {
				done <- err
				return
			}
			tl.Ack(buf[n-1].Seq + 1)
		}
	}()
	cell := src.Cell("rx/0000002a")
	v := uint64(0)
	for i := 0; i < 64; i++ {
		v++
		if err := cell.Save(v); err != nil {
			t.Fatal(err)
		}
	}
	perRecord := testing.AllocsPerRun(2000, func() {
		v++
		if err := cell.Save(v); err != nil {
			t.Fatal(err)
		}
	})
	tl.Close()
	if err := <-done; err != nil {
		t.Fatalf("follower: %v", err)
	}
	if got, _, _ := dst.Cell("rx/0000002a").Fetch(); got != v {
		t.Fatalf("follower holds %d, want %d", got, v)
	}
	if perRecord > 1 {
		t.Errorf("a replicated record allocates %v, want <= 1", perRecord)
	}
	t.Logf("a replicated record allocates %v", perRecord)
}
