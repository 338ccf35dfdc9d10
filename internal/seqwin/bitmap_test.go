package seqwin

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// TestBitmapDifferentialBoundaries runs Bitmap and the paper's Bool in
// lockstep over adversarial serial streams anchored at the edges the ESN
// machinery cares about: 0, 1, and the 2^32 subspace boundary.
func TestBitmapDifferentialBoundaries(t *testing.T) {
	anchors := []uint64{0, 1, 1<<32 - 200, 1 << 32, 1<<32 + 3}
	for _, w := range []int{1, 64, 100, 1024} {
		for _, anchor := range anchors {
			rng := rand.New(rand.NewSource(int64(w)*31 + int64(anchor%977)))
			bm, oracle := NewBitmap(w), NewBool(w)
			bm.Reinit(anchor, true)
			oracle.Reinit(anchor, true)
			base := anchor
			for i := 0; i < 4000; i++ {
				var s uint64
				switch rng.Intn(10) {
				case 0:
					s = base + uint64(rng.Intn(3*w+10))
				case 1:
					if d := uint64(rng.Intn(3 * w)); d < base {
						s = base - d
					} else {
						s = 1
					}
				default:
					s = base + uint64(rng.Intn(5))
				}
				base = max(base, s)
				if db, do := bm.Admit(s), oracle.Admit(s); db != do {
					t.Fatalf("w=%d anchor=%d step %d: Admit(%d): bitmap=%v bool=%v", w, anchor, i, s, db, do)
				}
				if bm.Edge() != oracle.Edge() {
					t.Fatalf("w=%d anchor=%d step %d: edge: bitmap=%d bool=%d", w, anchor, i, bm.Edge(), oracle.Edge())
				}
			}
		}
	}
}

// TestBitmapReinitAllSeen mirrors TestReinitAllSeen with a post-wake
// install above the ring span and past 2^32.
func TestBitmapReinitAllSeen(t *testing.T) {
	win := NewBitmap(64)
	for s := uint64(1); s <= 30; s++ {
		win.Admit(s)
	}
	win.Reinit(1<<32+130, true)
	for _, s := range []uint64{1<<32 + 130, 1<<32 + 100, 1<<32 + 67} {
		if d := win.Admit(s); d != DecisionDuplicate {
			t.Errorf("Admit(%d) = %v, want duplicate", s, d)
		}
	}
	if d := win.Admit(1<<32 + 66); d != DecisionStale {
		t.Errorf("Admit(edge-64) = %v, want stale", d)
	}
	if d := win.Admit(1<<32 + 131); d != DecisionNew {
		t.Errorf("Admit(edge+1) = %v, want new", d)
	}
}

// TestBitmapReinstallGrid checks the one-pass Reinit of a used window
// against the paper's Bool window, whose Reinit stays one assignment per
// entry so it is obviously right: widths around the word size, edges around
// zero, the window width, word boundaries, the ring size and 2^32, full and
// empty.
func TestBitmapReinstallGrid(t *testing.T) {
	for _, w := range []int{1, 63, 64, 65, 1000, 1024} {
		uw := uint64(w)
		edges := []uint64{0, 1, uw - 1, uw, uw + 1, 1<<32 - 1, 1<<32 + 1}
		for _, k := range []uint64{1, 17, 32, 33} {
			edges = append(edges, 64*k-1, 64*k, 64*k+1)
		}
		for _, edge := range edges {
			for _, allSeen := range []bool{true, false} {
				bm := NewBitmap(w)
				for s := uint64(1); s <= uw+70; s += 1 + s%3 {
					bm.Admit(s)
				}
				bm.Reinit(edge, allSeen)
				oracle := NewBool(w)
				oracle.Reinit(edge, allSeen)
				checkReinstalled(t, fmt.Sprintf("Reinit(w=%d, edge=%d, allSeen=%v)", w, edge, allSeen), bm, oracle, allSeen)
			}
		}
	}
}

func checkReinstalled(t *testing.T, name string, bm *Bitmap, oracle *Bool, allSeen bool) {
	t.Helper()
	w, edge := uint64(bm.W()), oracle.Edge()
	if bm.Edge() != edge {
		t.Fatalf("%s: Edge() = %d", name, bm.Edge())
	}
	lo := uint64(0)
	if edge > w+2 {
		lo = edge - w - 2
	}
	for s := lo; s <= edge+2; s++ {
		if got, want := bm.Seen(s), oracle.Seen(s); got != want {
			t.Fatalf("%s: Seen(%d) = %v, oracle says %v", name, s, got, want)
		}
	}
	wantOcc := 0
	if allSeen {
		wantOcc = int(min(edge, w))
	}
	if got := bm.Occupancy(); got != wantOcc {
		t.Fatalf("%s: Occupancy() = %d, want %d", name, got, wantOcc)
	}
	// Traffic across the reinstalled window: in-window numbers, replays and
	// enough fresh ones to clear every pre-marked word. Decisions match the
	// oracle. (A cleared Bool deliberately drops the paper's right-edge
	// invariant — see Bool.Reinit — so the cleared window's traffic is
	// judged by a fresh Bitmap's cleared install instead.)
	var traffic Window = oracle
	if !allSeen {
		traffic = NewBitmap(bm.W())
		traffic.Reinit(edge, false)
	}
	admit := func(s uint64) {
		if db, do := bm.Admit(s), traffic.Admit(s); db != do {
			t.Fatalf("%s: Admit(%d) = %v, oracle says %v", name, s, db, do)
		}
	}
	for s := lo; s <= edge; s += 1 + s%2 {
		admit(s)
	}
	// edge+1 after edge+2: a bit the install set above the edge would make
	// it a duplicate.
	admit(edge + 2)
	admit(edge + 1)
	for s := edge + 3; s <= edge+w+130; s += 1 + s%7 {
		admit(s)
		admit(s - min(s-1, w/2))
	}
}

// TestBitmapSize pins the window's header at 48 B: a receiver embeds it,
// and the edge's ring slot took the place of the power-of-two mask.
func TestBitmapSize(t *testing.T) {
	if got := unsafe.Sizeof(Bitmap{}); got != 48 {
		t.Errorf("Bitmap is %d B, want 48", got)
	}
}
