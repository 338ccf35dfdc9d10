package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"antireplay/internal/storefault"
	"antireplay/internal/telemetry"
	"antireplay/internal/watchdog"
)

// faultyJournalAt opens a journal whose file layer sits on a fresh
// injector, returning both.
func faultyJournalAt(t *testing.T, opts ...LanesOption) (*Journal, *storefault.Injector) {
	t.Helper()
	in := storefault.NewInjector(nil)
	j, err := openLane(filepath.Join(t.TempDir(), "sa.journal"),
		append([]LanesOption{LanesWithFS(in)}, opts...)...)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	return j, in
}

// TestJournalFsyncPoison is the fsyncgate regression: ONE failed fsync
// must poison the journal — every later save fails with the original
// error, the durability watermark never advances past the failure, and no
// later "successful" sync may launder it.
func TestJournalFsyncPoison(t *testing.T) {
	j, in := faultyJournalAt(t)
	defer j.Close()
	c := j.Cell("tx/1")
	if err := c.Save(7); err != nil {
		t.Fatalf("clean Save: %v", err)
	}

	in.Arm(storefault.Fault{Op: storefault.OpSync, Count: 1, Err: syscall.EIO})
	err := c.Save(8)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save under failed fsync = %v, want EIO", err)
	}
	if perr := j.Poisoned(); !errors.Is(perr, syscall.EIO) {
		t.Fatalf("Poisoned() = %v, want the EIO", perr)
	}

	// The fault budget is spent: the disk would now "work" again. The
	// journal must refuse anyway — retrying the sync could succeed over
	// holes the failed fsync left.
	atFailure := j.Syncs()
	for i := 0; i < 3; i++ {
		if err := c.Save(uint64(9 + i)); !errors.Is(err, syscall.EIO) {
			t.Fatalf("Save after poison = %v, want the original EIO", err)
		}
	}
	if err := j.Cell("tx/2").Save(1); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save on a sibling cell after poison = %v, want the original EIO", err)
	}
	if got := j.Syncs(); got != atFailure {
		t.Errorf("Syncs() grew %d -> %d after poison: a sync was retried", atFailure, got)
	}
}

// TestJournalPoisonNotMaskedByClose: closing a poisoned journal reports
// the poison, not a bland ErrClosed — the caller tearing the stack down
// must still see what actually went wrong with its data.
func TestJournalPoisonNotMaskedByClose(t *testing.T) {
	j, in := faultyJournalAt(t)
	in.Arm(storefault.Fault{Op: storefault.OpSync, Count: 1, Err: syscall.EIO})
	if err := j.Cell("tx/1").Save(1); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save = %v, want EIO", err)
	}
	if err := j.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close on poisoned journal = %v, want the original EIO", err)
	}
	// And after close, the original error still outranks ErrClosed.
	if err := j.Cell("tx/1").Save(2); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save after close = %v, want the original EIO", err)
	}
}

// TestJournalPoisonFreezesWatermark: a failed commit pins the ack
// watermark — saves acknowledged before the failure stay readable, the
// failed one is not reported durable by a later fetch of recovery.
func TestJournalPoisonFreezesWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sa.journal")
	in := storefault.NewInjector(nil)
	j, err := openLane(path, LanesWithFS(in))
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	c := j.Cell("tx/1")
	for v := uint64(1); v <= 5; v++ {
		if err := c.Save(v); err != nil {
			t.Fatalf("Save(%d): %v", v, err)
		}
	}
	// The write itself fails: nothing of the 6th record lands.
	in.Arm(storefault.Fault{Op: storefault.OpWrite, Count: 1, Err: syscall.EIO})
	if err := c.Save(6); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save(6) = %v, want EIO", err)
	}
	j.Close()

	// Reopen clean: the acked prefix must be there, the failed save must
	// not have been acknowledged as durable (it was not), and recovery
	// must not invent it.
	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	v, ok, err := j2.Cell("tx/1").Fetch()
	if err != nil || !ok {
		t.Fatalf("Fetch after reopen = (%d, %v, %v)", v, ok, err)
	}
	if v != 5 {
		t.Errorf("recovered value = %d, want 5 (acked prefix, failed save absent)", v)
	}
}

// TestJournalENOSPCWriteRescue: a full disk at the WRITE step is rescued
// by an immediate compaction — the batch lands via the snapshot, nothing
// poisons, and the waiter sees success.
func TestJournalENOSPCWriteRescue(t *testing.T) {
	j, in := faultyJournalAt(t)
	defer j.Close()
	c := j.Cell("tx/1")
	if err := c.Save(1); err != nil {
		t.Fatalf("clean Save: %v", err)
	}
	in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: "sa.journal", Count: 1, Err: syscall.ENOSPC})
	if err := c.Save(2); err != nil {
		t.Fatalf("Save under rescuable ENOSPC = %v, want nil", err)
	}
	if j.Poisoned() != nil {
		t.Fatalf("journal poisoned by a rescued ENOSPC: %v", j.Poisoned())
	}
	if j.Rescues() != 1 {
		t.Errorf("Rescues() = %d, want 1", j.Rescues())
	}
	v, ok, err := c.Fetch()
	if err != nil || !ok || v != 2 {
		t.Errorf("Fetch after rescue = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}

// TestJournalENOSPCSyncPoisons: the same errno at the SYNC step must NOT
// rescue — fsyncgate applies regardless of errno.
func TestJournalENOSPCSyncPoisons(t *testing.T) {
	j, in := faultyJournalAt(t)
	defer j.Close()
	in.Arm(storefault.Fault{Op: storefault.OpSync, Count: 1, Err: syscall.ENOSPC})
	if err := j.Cell("tx/1").Save(1); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Save = %v, want ENOSPC", err)
	}
	if j.Poisoned() == nil {
		t.Fatal("ENOSPC at the sync step did not poison")
	}
}

// TestJournalCompactRenameFailure: a failed compaction rename leaves no
// temp file behind and the journal fully serving on the old log.
func TestJournalCompactRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sa.journal")
	in := storefault.NewInjector(nil)
	j, err := openLane(path, LanesWithFS(in), LanesCompactAt(1))
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	c := j.Cell("tx/1")
	if err := c.Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	in.Arm(storefault.Fault{Op: storefault.OpRename, Path: "sa.journal", Count: 1, Err: syscall.EACCES})
	// Grow the log until a compaction is attempted and fails; saves keep
	// succeeding on the old log throughout.
	for v := uint64(2); v <= 64; v++ {
		if err := c.Save(v); err != nil {
			t.Fatalf("Save(%d) during failed compaction: %v", v, err)
		}
	}
	if in.Fired() == 0 {
		t.Fatal("compaction rename fault never fired")
	}
	if j.Poisoned() != nil {
		t.Fatalf("early compaction failure poisoned the journal: %v", j.Poisoned())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	strays, err := filepath.Glob(path + ".compact*")
	if err != nil {
		t.Fatal(err)
	}
	if len(strays) != 0 {
		t.Fatalf("stranded compaction temps: %v", strays)
	}
	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if v, ok, _ := j2.Cell("tx/1").Fetch(); !ok || v != 64 {
		t.Errorf("recovered (%d, %v), want (64, true)", v, ok)
	}
}

// TestJournalSweepsStaleCompactTemps: a crash between CreateTemp and
// Remove leaves an orphan; the next open must sweep it.
func TestJournalSweepsStaleCompactTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sa.journal")
	j, err := openLane(path)
	if err != nil {
		t.Fatalf("openLane: %v", err)
	}
	if err := j.Cell("tx/1").Save(9); err != nil {
		t.Fatalf("Save: %v", err)
	}
	j.Close()
	stray := path + ".compact123456789"
	if err := os.WriteFile(stray, []byte("half a snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	j2, err := openLane(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stale compact temp survived reopen (stat err %v)", err)
	}
	if v, ok, _ := j2.Cell("tx/1").Fetch(); !ok || v != 9 {
		t.Errorf("recovered (%d, %v), want (9, true)", v, ok)
	}
}

// TestJournalRepair: a poisoned journal accepts a donor merge, clears the
// poison, resumes committing, and counts the repair.
func TestJournalRepair(t *testing.T) {
	j, in := faultyJournalAt(t)
	defer j.Close()
	c := j.Cell("tx/1")
	if err := c.Save(10); err != nil {
		t.Fatalf("Save: %v", err)
	}
	in.Arm(storefault.Fault{Op: storefault.OpSync, Count: 1, Err: syscall.EIO})
	if err := c.Save(11); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save = %v, want EIO", err)
	}

	// Donor (the standby's replica) knows a value ahead of ours and one
	// behind; merge is max-wins.
	donor := map[string]uint64{"tx/1": 12, "tx/2": 3}
	if err := j.Repair(donor); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if j.Poisoned() != nil {
		t.Fatalf("still poisoned after repair: %v", j.Poisoned())
	}
	if j.Repairs() != 1 {
		t.Errorf("Repairs() = %d, want 1", j.Repairs())
	}
	if v, ok, _ := c.Fetch(); !ok || v != 12 {
		t.Errorf("tx/1 after repair = (%d, %v), want (12, true)", v, ok)
	}
	if err := c.Save(13); err != nil {
		t.Fatalf("Save after repair: %v", err)
	}
	// A second fault poisons again — repair is per-incident, not amnesty.
	in.Arm(storefault.Fault{Op: storefault.OpSync, Count: 1, Err: syscall.EIO})
	if err := c.Save(14); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save after re-fault = %v, want EIO", err)
	}
	if j.Poisoned() == nil {
		t.Fatal("second fsync failure did not re-poison")
	}
}

// TestLanesQuarantineIsolation: poisoning one lane quarantines it alone —
// sibling lanes keep saving, Poisoned and Quarantined report exactly the
// failed lane, and the poison hook fires once with its index.
func TestLanesQuarantineIsolation(t *testing.T) {
	dir := t.TempDir()
	in := storefault.NewInjector(nil)
	var (
		mu    sync.Mutex
		hooks []int
	)
	l, err := OpenLanes(dir, LanesCount(4), LanesWithFS(in),
		LanesOnPoison(func(lane int, err error) {
			mu.Lock()
			hooks = append(hooks, lane)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()

	// Find keys for two different lanes.
	var sickKey, wellKey string
	sick := -1
	for i := 0; ; i++ {
		key := fmt.Sprintf("tx/%08x", i)
		lane := l.laneOf(key)
		if sickKey == "" {
			sickKey, sick = key, lane
			continue
		}
		if lane != sick {
			wellKey = key
			break
		}
	}
	if err := l.Cell(sickKey).Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	in.Arm(storefault.Fault{Op: storefault.OpSync, Path: fmt.Sprintf("lane-%03d", sick), Err: syscall.EIO})
	if err := l.Cell(sickKey).Save(2); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save on faulted lane = %v, want EIO", err)
	}

	if q := l.Quarantined(); len(q) != 1 || q[0] != sick {
		t.Fatalf("Quarantined() = %v, want [%d]", q, sick)
	}
	for i, j := range l.LaneJournals() {
		if err := j.Poisoned(); (err != nil) != (i == sick) {
			t.Errorf("lane %d Poisoned() = %v, sick lane is %d", i, err, sick)
		}
	}
	// Sibling lanes are untouched.
	if err := l.Cell(wellKey).Save(3); err != nil {
		t.Fatalf("Save on healthy lane = %v, want nil", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hooks) != 1 || hooks[0] != sick {
		t.Errorf("poison hook fired %v, want exactly [%d]", hooks, sick)
	}
}

// TestLanesRepairLane: the per-lane repair path filters the donor to the
// lane's own keys, clears the quarantine, and the lane resumes.
func TestLanesRepairLane(t *testing.T) {
	dir := t.TempDir()
	in := storefault.NewInjector(nil)
	l, err := OpenLanes(dir, LanesCount(4), LanesWithFS(in))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	var sickKey string
	sick := -1
	for i := 0; sickKey == ""; i++ {
		key := fmt.Sprintf("tx/%08x", i)
		sickKey, sick = key, l.laneOf(key)
	}
	in.Arm(storefault.Fault{Op: storefault.OpSync, Path: fmt.Sprintf("lane-%03d", sick), Count: 1, Err: syscall.EIO})
	if err := l.Cell(sickKey).Save(5); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save = %v, want EIO", err)
	}
	// The donor carries the whole medium's values; RepairLane must apply
	// only the sick lane's keys (a foreign key landing on the wrong lane
	// would corrupt routing).
	donor := map[string]uint64{sickKey: 6}
	for i := 0; len(donor) < 8; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		if l.laneOf(key) != sick {
			donor[key] = uint64(100 + i)
		}
	}
	if err := l.RepairLane(sick, donor); err != nil {
		t.Fatalf("RepairLane: %v", err)
	}
	if q := l.Quarantined(); len(q) != 0 {
		t.Fatalf("still quarantined after repair: %v", q)
	}
	if v, ok, _ := l.Cell(sickKey).Fetch(); !ok || v != 6 {
		t.Errorf("repaired key = (%d, %v), want (6, true)", v, ok)
	}
	for key := range donor {
		if key == sickKey {
			continue
		}
		if _, ok, _ := l.Cell(key).Fetch(); ok {
			t.Errorf("foreign donor key %q leaked onto lane %d", key, l.laneOf(key))
		}
	}
	if err := l.RepairLane(99, nil); err == nil {
		t.Error("RepairLane(99) = nil, want out-of-range error")
	}
}

// TestPoolRetryTransient: a transient save failure is retried within the
// budget and succeeds without surfacing an error.
func TestPoolRetryTransient(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(1)
	defer p.Close()
	f := NewFaulty(new(Mem))
	f.FailSaves(1)
	s := p.Saver(f)
	errc := make(chan error, 1)
	s.StartSave(42, func(err error) { errc <- err })
	if err := <-errc; err != nil {
		t.Fatalf("retried save surfaced %v, want nil", err)
	}
	if v, ok, _ := f.Fetch(); !ok || v != 42 {
		t.Errorf("Fetch = (%d, %v), want (42, true)", v, ok)
	}
	if p.SaveRetries() == 0 {
		t.Error("SaveRetries() = 0, want > 0")
	}
	if p.SaveGiveUps() != 0 {
		t.Errorf("SaveGiveUps() = %d, want 0", p.SaveGiveUps())
	}
}

// TestPoolRetryExhaustion: a failure outlasting the budget surfaces
// ErrSaveRetriesExhausted wrapping the last underlying error.
func TestPoolRetryExhaustion(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(1)
	defer p.Close()
	f := NewFaulty(new(Mem))
	f.FailSaves(100)
	s := p.Saver(f)
	errc := make(chan error, 1)
	s.StartSave(42, func(err error) { errc <- err })
	err := <-errc
	if !errors.Is(err, ErrSaveRetriesExhausted) {
		t.Fatalf("err = %v, want ErrSaveRetriesExhausted", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want the underlying ErrInjected preserved", err)
	}
	if p.SaveGiveUps() != 1 {
		t.Errorf("SaveGiveUps() = %d, want 1", p.SaveGiveUps())
	}
}

// TestPoolPoisonedFailsFast: a poisoned lane is a permanent failure — no
// retry may re-sync it, and the original error comes back unwrapped.
func TestPoolPoisonedFailsFast(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j, in := faultyJournalAt(t)
	defer j.Close()
	in.Arm(storefault.Fault{Op: storefault.OpSync, Count: 1, Err: syscall.EIO})
	if err := j.Cell("tx/1").Save(1); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save = %v, want EIO", err)
	}
	p := NewSaverPool(1)
	defer p.Close()
	s := p.Saver(j.Cell("tx/1"))
	errc := make(chan error, 1)
	s.StartSave(2, func(err error) { errc <- err })
	err := <-errc
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want the lane's EIO", err)
	}
	if errors.Is(err, ErrSaveRetriesExhausted) {
		t.Fatal("poisoned-lane save was retried to exhaustion; must fail fast")
	}
	if p.SaveRetries() != 0 {
		t.Errorf("SaveRetries() = %d, want 0 (no retry into a poisoned lane)", p.SaveRetries())
	}
}

// TestFaultyReadFaults covers the consolidated read-path injection: fail,
// corrupt (matching both sentinels), and latency — which slows saves too,
// the slow medium the pool tests borrow.
func TestFaultyReadFaults(t *testing.T) {
	f := NewFaulty(new(Mem))
	if err := f.Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	f.FailFetches(1)
	if _, _, err := f.Fetch(); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed fetch = %v, want ErrInjected", err)
	}
	f.CorruptFetches(1)
	_, _, err := f.Fetch()
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrInjected) {
		t.Fatalf("corrupt fetch = %v, want both ErrCorrupt and ErrInjected", err)
	}
	if v, ok, err := f.Fetch(); err != nil || !ok || v != 7 {
		t.Fatalf("clean fetch = (%d, %v, %v), want (7, true, nil)", v, ok, err)
	}
	f.SetLatency(2 * time.Millisecond)
	start := time.Now()
	if _, _, err := f.Fetch(); err != nil {
		t.Fatalf("latent fetch: %v", err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("latent fetch took %v, want >= 2ms", d)
	}
	start = time.Now()
	if err := f.Save(9); err != nil {
		t.Fatalf("latent save: %v", err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("latent save took %v, want >= 2ms", d)
	}
	f.SetLatency(0)
	if v, ok, err := f.Fetch(); err != nil || !ok || v != 9 {
		t.Errorf("fetch after the latent save = (%d, %v, %v), want (9, true, nil)", v, ok, err)
	}
}

// TestErrInjectedSharedSentinel: the store-level and file-level injection
// vocabularies share one sentinel, so assertions compose across layers.
func TestErrInjectedSharedSentinel(t *testing.T) {
	if !errors.Is(ErrInjected, storefault.ErrInjected) {
		t.Fatal("store.ErrInjected is not storefault.ErrInjected")
	}
	in := storefault.NewInjector(nil)
	in.Arm(storefault.Fault{Op: storefault.OpRead})
	if _, err := in.ReadFile(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected read = %v, want ErrInjected through the store alias", err)
	}
}

// TestLanesPoisonTelemetry: the laned scrape reports the quarantine flags
// per lane and in aggregate.
func TestLanesPoisonTelemetry(t *testing.T) {
	dir := t.TempDir()
	in := storefault.NewInjector(nil)
	l, err := OpenLanes(dir, LanesCount(2), LanesWithFS(in))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("tx/%08x", i)
		if l.laneOf(key) == 0 {
			break
		}
	}
	in.Arm(storefault.Fault{Op: storefault.OpSync, Path: "lane-000", Err: syscall.EIO})
	if err := l.Cell(key).Save(1); err == nil {
		t.Fatal("Save on faulted lane succeeded")
	}
	samples := map[string]float64{}
	l.CollectTelemetry(func(name string, _ telemetry.Kind, v float64, labels ...telemetry.Label) {
		k := name
		for _, lb := range labels {
			k += "{" + lb.Key + "=" + lb.Value + "}"
		}
		samples[k] = v
	})
	if samples["lanes_quarantined"] != 1 {
		t.Errorf("lanes_quarantined = %v, want 1", samples["lanes_quarantined"])
	}
	if samples["lane_quarantined{lane=0}"] != 1 || samples["lane_quarantined{lane=1}"] != 0 {
		for k, v := range samples {
			if strings.Contains(k, "quarantined") {
				t.Logf("sample %s = %v", k, v)
			}
		}
		t.Error("per-lane quarantine gauges wrong")
	}
}
