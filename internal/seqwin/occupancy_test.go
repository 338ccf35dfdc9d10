package seqwin

import "testing"

func testOccupancy(t *testing.T, name string, mk func(w int) Window) {
	t.Helper()
	w := mk(64)
	occ := w.(Occupier)
	if got := occ.Occupancy(); got != 0 {
		t.Fatalf("%s: empty window occupancy = %d, want 0", name, got)
	}
	// In-order delivery: every number inside the window is seen.
	for s := uint64(1); s <= 200; s++ {
		w.Admit(s)
	}
	if got := occ.Occupancy(); got != 64 {
		t.Errorf("%s: full window occupancy = %d, want 64", name, got)
	}
	// Gappy delivery: jump the edge far ahead, only the edge bit is set.
	w.Admit(10_000)
	if got := occ.Occupancy(); got != 1 {
		t.Errorf("%s: post-jump occupancy = %d, want 1", name, got)
	}
	w.Admit(9_990)
	if got := occ.Occupancy(); got != 2 {
		t.Errorf("%s: occupancy after backfill = %d, want 2", name, got)
	}
	// Reinit with allSeen models the wake-up reinstall: all w bits marked.
	w.Reinit(50_000, true)
	if got := occ.Occupancy(); got != 64 {
		t.Errorf("%s: post-wake occupancy = %d, want 64", name, got)
	}
	w.Reinit(60_000, false)
	if got := occ.Occupancy(); got != 0 {
		t.Errorf("%s: post-clear occupancy = %d, want 0", name, got)
	}
	// A narrow window near zero: (edge-w, edge] clips at 1.
	w2 := mk(64)
	occ2 := w2.(Occupier)
	for s := uint64(1); s <= 10; s++ {
		w2.Admit(s)
	}
	if got := occ2.Occupancy(); got != 10 {
		t.Errorf("%s: low-edge occupancy = %d, want 10", name, got)
	}
}

func TestBitmapOccupancy(t *testing.T) {
	testOccupancy(t, "bitmap", func(w int) Window { return NewBitmap(w) })
}
