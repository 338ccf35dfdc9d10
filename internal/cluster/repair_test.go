package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"

	"antireplay/internal/store"
	"antireplay/internal/storefault"
)

// repairLanes opens a primary/standby lane pair (the primary behind a fault
// injector) and a running standby replicating it.
func repairLanes(t *testing.T, laneCount int) (*store.Lanes, *store.Lanes, *Standby, *storefault.Injector) {
	t.Helper()
	dir := t.TempDir()
	in := storefault.NewInjector(nil)
	lp, err := store.OpenLanes(filepath.Join(dir, "primary"),
		store.LanesCount(laneCount), store.LanesWithoutSync(), store.LanesWithFS(in))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lp.Close() })
	ls, err := store.OpenLanes(filepath.Join(dir, "standby"),
		store.LanesCount(laneCount), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	s, err := NewStandby(Config{Source: lp, Journal: ls, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Stop() })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return lp, ls, s, in
}

// laneKey probes for a key the lane hash places on the given lane.
func laneKey(t *testing.T, l *store.Lanes, lane int) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		k := fmt.Sprintf("sa/%d", i)
		if l.Cell(k).Lane() == lane {
			return k
		}
	}
	t.Fatalf("no key found for lane %d", lane)
	return ""
}

// TestRepairSourceLane exercises the standby-assisted half of lane repair:
// a primary lane dies mid-write and is quarantined, the sibling lanes keep
// committing, and RepairSourceLane re-seeds the dead lane from the follower's
// applied state — which, through the sync-follower gate, holds every save
// the primary ever acknowledged on that lane.
func TestRepairSourceLane(t *testing.T) {
	lp, _, s, in := repairLanes(t, 4)
	sick := laneKey(t, lp, 0)
	well := laneKey(t, lp, 1)

	if err := lp.Cell(sick).Save(7); err != nil {
		t.Fatal(err)
	}
	if err := lp.Cell(well).Save(9); err != nil {
		t.Fatal(err)
	}

	// Kill lane 0's medium: every write to its log fails from here on.
	in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: "lane-000.log", Err: syscall.EIO})
	if err := lp.Cell(sick).Save(8); !errors.Is(err, syscall.EIO) {
		t.Fatalf("save into dead lane = %v, want EIO", err)
	}
	if q := lp.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v, want [0]", q)
	}
	// The fault domain is one lane wide: the sibling still commits, and its
	// saves still clear the sync-follower gate.
	if err := lp.Cell(well).Save(10); err != nil {
		t.Fatalf("sibling lane save: %v", err)
	}

	// Bounds and the repair itself.
	if err := s.RepairSourceLane(-1); err == nil {
		t.Fatal("RepairSourceLane(-1) accepted")
	}
	if err := s.RepairSourceLane(4); err == nil {
		t.Fatal("RepairSourceLane(4) accepted on a 4-lane standby")
	}
	in.Disarm()
	if err := s.RepairSourceLane(0); err != nil {
		t.Fatalf("RepairSourceLane(0): %v", err)
	}
	if q := lp.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() after repair = %v, want none", q)
	}
	// Every acknowledged value survived the round trip through the donor,
	// and the lane takes fresh saves again.
	if got := lp.Values()[sick]; got < 7 {
		t.Fatalf("repaired lane lost acked value: %s = %d, want >= 7", sick, got)
	}
	if err := lp.Cell(sick).Save(8); err != nil {
		t.Fatalf("save into repaired lane: %v", err)
	}
	if got := lp.Values()[sick]; got != 8 {
		t.Fatalf("%s = %d after post-repair save, want 8", sick, got)
	}
}

// TestRepairSourceLaneRefusedAfterPromotion pins the fencing rule: once the
// standby has taken over, "repairing" the deposed primary would revive a
// fenced writer, so RepairSourceLane must refuse with ErrPromoted.
func TestRepairSourceLaneRefusedAfterPromotion(t *testing.T) {
	lp, _, s, _ := repairLanes(t, 2)
	if err := lp.Cell(laneKey(t, lp, 0)).Save(3); err != nil {
		t.Fatal(err)
	}
	gw, _, err := s.Takeover()
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer gw.Close()
	if err := s.RepairSourceLane(0); !errors.Is(err, ErrPromoted) {
		t.Fatalf("RepairSourceLane after takeover = %v, want ErrPromoted", err)
	}
}
