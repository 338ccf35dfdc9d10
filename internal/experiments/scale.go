package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// scaleLanes is the medium's commit-lane count, and the concurrent saver
// count of the steady-state SAVE row.
const scaleLanes = 64

// scale measures the journal lanes at gateway scale: the steady-state cost
// of 64 concurrent savers spread across lanes, cold-start recovery of a
// population of sas counters (packed-key cells, lanes replayed
// concurrently), and the pinned per-SA heap footprint of sas fully
// installed inbound SAs. The registry runs a million; TestScaleSmoke 50k.
func scale(sas int) (*Table, error) {
	t := &Table{
		ID:    "scale",
		Title: "million-SA scale: laned recovery, 64-way SAVE, per-SA heap",
		Note: "Single-shot wall-clock rows, one sample with no spread: the only record of the 1M-SA figures " +
			"until bench/ has a scale workload. recover_lanes replays frames into packed uint64-keyed cells " +
			"(no per-key string or map-bucket churn), every lane concurrently; the one-lane-versus-64 gap the " +
			"recover_single row used to show closed by construction, a single journal being a medium of one " +
			"such lane. save_lanes_64 is the gateway-scale SAVE shape routed across " +
			"lanes at 0 allocs_op; with ~one saver per lane each lane's group commit covers ~one frame, " +
			"so the laned append trades the single log's cross-saver write batching " +
			"(BenchmarkJournalAppendParallel) for per-lane committers and " +
			"fsyncs that parallelize across cores and devices. sa_heap installs the full inbound SA " +
			"population over the laned medium and reports live heap per SA; its install rate is bound by " +
			"the SAD's copy-on-write snapshots, not the journal.",
		Columns: []string{"path", "ops", "ms", "per_sec", "detail"},
	}
	dir, err := os.MkdirTemp("", "scale-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := scaleRecoveryRows(t, sas, dir); err != nil {
		return nil, err
	}
	if err := scaleFootprintRow(t, sas, dir); err != nil {
		return nil, err
	}
	return t, nil
}

func addScaleRow(t *Table, path string, ops int, elapsed time.Duration, detail string) {
	t.AddRow(path, fmt.Sprint(ops), fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/1e6),
		fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()), detail)
}

// scaleRecoveryRows populates cells counters into the medium, measures the
// 64-way steady-state SAVE on it, then closes it and times the cold-start
// replay.
func scaleRecoveryRows(t *Table, cells int, dir string) error {
	lanesDir := filepath.Join(dir, "lanes")
	lanes, err := store.OpenLanes(lanesDir, store.LanesCount(scaleLanes), store.LanesWithoutSync())
	if err != nil {
		return err
	}
	for i := 0; i < cells; i++ {
		if err := lanes.Cell(fmt.Sprintf("rx/%08x", i)).Save(uint64(i + 1)); err != nil {
			return err
		}
	}

	// Steady-state 64-way SAVE across lanes, before the close so the savers
	// run against warm staging slabs. The extra frames land in the lane logs
	// and are replayed below.
	savers := make([]*store.Cell, scaleLanes)
	for i := range savers {
		savers[i] = lanes.Cell(fmt.Sprintf("rx/%08x", i))
	}
	per := cells / scaleLanes / 4
	if per < 1000 {
		per = 1000
	}
	var wg sync.WaitGroup
	errs := make(chan error, scaleLanes)
	start := time.Now()
	for _, c := range savers {
		wg.Add(1)
		go func(c *store.Cell) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if err := c.Save(uint64(cells + i)); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	saveElapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}
	v := uint64(2 * cells)
	allocs := testing.AllocsPerRun(500, func() {
		v++
		if err := savers[0].Save(v); err != nil {
			errs <- err
		}
	})
	select {
	case err := <-errs:
		return err
	default:
	}
	ops := per * scaleLanes
	addScaleRow(t, "save_lanes_64", ops, saveElapsed,
		fmt.Sprintf("ns_op=%.1f allocs_op=%.2f", float64(saveElapsed.Nanoseconds())/float64(ops), allocs))

	if err := lanes.Close(); err != nil {
		return err
	}

	// Cold-start recovery: reopen the medium and replay its whole log.
	start = time.Now()
	lanes2, err := store.OpenLanes(lanesDir, store.LanesWithoutSync())
	if err != nil {
		return err
	}
	lanesElapsed := time.Since(start)
	defer lanes2.Close()
	if got := lanes2.Keys(); got != cells {
		return fmt.Errorf("scale: lanes recovered %d keys, want %d", got, cells)
	}
	addScaleRow(t, "recover_lanes", cells, lanesElapsed,
		fmt.Sprintf("%d lanes, packed cells", lanes2.LaneCount()))
	return nil
}

// scaleFootprintRow installs sas inbound SAs on one gateway and reports the
// live heap cost per SA.
func scaleFootprintRow(t *Table, sas int, dir string) error {
	lanes, err := store.OpenLanes(filepath.Join(dir, "sas"),
		store.LanesCount(scaleLanes), store.LanesWithoutSync())
	if err != nil {
		return err
	}
	defer lanes.Close()
	gw, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: lanes})
	if err != nil {
		return err
	}
	defer gw.Close()

	keys := ipsec.KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0x5A}, ipsec.AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0xA5}, ipsec.EncKeySize),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < sas; i++ {
		if _, err := gw.AddInbound(uint32(i+1), keys); err != nil {
			return fmt.Errorf("scale: AddInbound %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := after.HeapAlloc - before.HeapAlloc
	addScaleRow(t, "sa_heap", sas, elapsed,
		fmt.Sprintf("bytes_per_sa=%d heap_mib=%.0f", heap/uint64(sas), float64(heap)/(1<<20)))
	return nil
}
