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
// a steady-state Cell.Save — encode in a pooled scratch, stage under the
// mutex, elected commit, watermark ack — allocates nothing per record once
// the staging slabs have warmed up. (Skipped under -race: the detector's
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
	// Warm up: the staging slab, spare slab, and frame scratch reach their
	// steady capacities.
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
