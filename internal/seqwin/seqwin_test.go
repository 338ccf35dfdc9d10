package seqwin

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// allWindows returns one of each implementation at width w.
func allWindows(w int) map[string]Window {
	return map[string]Window{
		"bool":   NewBool(w),
		"bitmap": NewBitmap(w),
	}
}

func TestDecisionString(t *testing.T) {
	tests := []struct {
		d    Decision
		want string
	}{
		{DecisionNew, "new"},
		{DecisionInWindow, "in-window"},
		{DecisionDuplicate, "duplicate"},
		{DecisionStale, "stale"},
		{Decision(0), "decision(0)"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("Decision(%d).String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestDecisionDeliver(t *testing.T) {
	if !DecisionNew.Deliver() || !DecisionInWindow.Deliver() {
		t.Error("New and InWindow must deliver")
	}
	if DecisionDuplicate.Deliver() || DecisionStale.Deliver() {
		t.Error("Duplicate and Stale must not deliver")
	}
}

// TestPaperThreeCases exercises the three receive cases of §2 on every
// implementation.
func TestPaperThreeCases(t *testing.T) {
	for name, win := range allWindows(64) {
		t.Run(name, func(t *testing.T) {
			// Case 3 first: s > r advances the window.
			if d := win.Admit(100); d != DecisionNew {
				t.Fatalf("Admit(100) = %v, want new", d)
			}
			if win.Edge() != 100 {
				t.Fatalf("Edge = %d, want 100", win.Edge())
			}
			// Case 2: r-w < s <= r, unseen then seen.
			if d := win.Admit(80); d != DecisionInWindow {
				t.Errorf("Admit(80) = %v, want in-window", d)
			}
			if d := win.Admit(80); d != DecisionDuplicate {
				t.Errorf("Admit(80) again = %v, want duplicate", d)
			}
			// Replay of the right edge itself must be a duplicate.
			if d := win.Admit(100); d != DecisionDuplicate {
				t.Errorf("Admit(100) replay of edge = %v, want duplicate", d)
			}
			// Case 1: s <= r-w is stale.
			if d := win.Admit(36); d != DecisionStale {
				t.Errorf("Admit(36) = %v, want stale (left edge is 37)", d)
			}
			if d := win.Admit(37); d != DecisionInWindow {
				t.Errorf("Admit(37) = %v, want in-window (exactly left edge)", d)
			}
		})
	}
}

func TestZeroAlwaysStale(t *testing.T) {
	for name, win := range allWindows(64) {
		if d := win.Admit(0); d != DecisionStale {
			t.Errorf("%s: Admit(0) = %v, want stale", name, d)
		}
	}
}

func TestInitialStateAcceptsOne(t *testing.T) {
	for name, win := range allWindows(64) {
		if d := win.Admit(1); d != DecisionNew {
			t.Errorf("%s: Admit(1) on fresh window = %v, want new", name, d)
		}
	}
}

func TestInOrderStream(t *testing.T) {
	for name, win := range allWindows(64) {
		t.Run(name, func(t *testing.T) {
			for s := uint64(1); s <= 1000; s++ {
				if d := win.Admit(s); d != DecisionNew {
					t.Fatalf("Admit(%d) = %v, want new", s, d)
				}
			}
			if win.Edge() != 1000 {
				t.Errorf("Edge = %d, want 1000", win.Edge())
			}
		})
	}
}

func TestSlideBeyondWindow(t *testing.T) {
	for name, win := range allWindows(64) {
		t.Run(name, func(t *testing.T) {
			win.Admit(10)
			// Jump far beyond the window: everything old becomes stale.
			if d := win.Admit(10_000); d != DecisionNew {
				t.Fatalf("Admit(10000) = %v, want new", d)
			}
			if d := win.Admit(10); d != DecisionStale {
				t.Errorf("Admit(10) after jump = %v, want stale", d)
			}
			// Unseen numbers inside the new window deliver.
			if d := win.Admit(10_000 - 63); d != DecisionInWindow {
				t.Errorf("Admit(left edge) = %v, want in-window", d)
			}
		})
	}
}

func TestReorderWithinWindow(t *testing.T) {
	for name, win := range allWindows(64) {
		t.Run(name, func(t *testing.T) {
			// Deliver out of order: 5, 3, 4, 1, 2 all within w.
			order := []uint64{5, 3, 4, 1, 2}
			for _, s := range order {
				if d := win.Admit(s); !d.Deliver() {
					t.Errorf("Admit(%d) = %v, want deliverable", s, d)
				}
			}
			// Everything replayed is now a duplicate.
			for _, s := range order {
				if d := win.Admit(s); d.Deliver() {
					t.Errorf("replayed Admit(%d) = %v, want discard", s, d)
				}
			}
		})
	}
}

func TestReinitAllSeen(t *testing.T) {
	for name, win := range allWindows(64) {
		t.Run(name, func(t *testing.T) {
			for s := uint64(1); s <= 30; s++ {
				win.Admit(s)
			}
			// Paper wake-up: edge leaps, whole window marked seen.
			win.Reinit(130, true)
			if win.Edge() != 130 {
				t.Fatalf("Edge = %d, want 130", win.Edge())
			}
			// Every number in (130-64, 130] must be a duplicate.
			for _, s := range []uint64{130, 100, 67} {
				if d := win.Admit(s); d != DecisionDuplicate {
					t.Errorf("Admit(%d) = %v, want duplicate", s, d)
				}
			}
			// Below the left edge: stale.
			if d := win.Admit(66); d != DecisionStale {
				t.Errorf("Admit(66) = %v, want stale", d)
			}
			// Fresh numbers still flow.
			if d := win.Admit(131); d != DecisionNew {
				t.Errorf("Admit(131) = %v, want new", d)
			}
		})
	}
}

func TestReinitCleared(t *testing.T) {
	for name, win := range allWindows(64) {
		t.Run(name, func(t *testing.T) {
			for s := uint64(1); s <= 300; s++ {
				win.Admit(s)
			}
			// Baseline cold restart: r=0, window cleared. Old traffic is
			// accepted again — the paper's §3 failure.
			win.Reinit(0, false)
			if win.Edge() != 0 {
				t.Fatalf("Edge = %d, want 0", win.Edge())
			}
			if d := win.Admit(250); d != DecisionNew {
				t.Errorf("replayed Admit(250) after cold restart = %v, want new (the vulnerability)", d)
			}
		})
	}
}

// TestBoolPaperEdgeInvariant checks the transliteration subtlety: after any
// slide the right-edge cell reads seen, because wdw[w] is never overwritten
// after its all-true initialization.
func TestBoolPaperEdgeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	win := NewBool(32)
	s := uint64(0)
	for i := 0; i < 500; i++ {
		s += uint64(rng.Intn(40) + 1)
		win.Admit(s)
		if !win.Seen(s) {
			t.Fatalf("edge %d not seen after slide", s)
		}
		if d := win.Admit(s); d != DecisionDuplicate {
			t.Fatalf("replay of edge %d = %v, want duplicate", s, d)
		}
	}
}

// TestDifferential runs identical random admit streams through all
// implementations and requires identical decisions and edges throughout.
func TestDifferential(t *testing.T) {
	widths := []int{64}
	for _, w := range []int{1, 2, 63, 65, 128, 100} {
		widths = append(widths, w)
	}
	for _, w := range widths {
		w := w
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			wins := allWindows(w)
			base := uint64(1)
			for i := 0; i < 5000; i++ {
				// Random walk: mostly near the edge, occasional jumps.
				var s uint64
				switch rng.Intn(10) {
				case 0:
					s = base + uint64(rng.Intn(3*w+10))
				case 1:
					d := uint64(rng.Intn(3 * w))
					if d >= base {
						s = 1
					} else {
						s = base - d
					}
				default:
					s = base + uint64(rng.Intn(5))
				}
				if s > base {
					base = s
				}

				var firstName string
				var first Decision
				for name, win := range wins {
					d := win.Admit(s)
					if firstName == "" {
						firstName, first = name, d
						continue
					}
					if d != first {
						t.Fatalf("step %d: Admit(%d): %s = %v but %s = %v",
							i, s, firstName, first, name, d)
					}
				}
				var edge uint64
				edgeSet := false
				for name, win := range wins {
					if !edgeSet {
						edge, edgeSet = win.Edge(), true
						firstName = name
						continue
					}
					if win.Edge() != edge {
						t.Fatalf("step %d: edge mismatch: %s=%d %s=%d",
							i, firstName, edge, name, win.Edge())
					}
				}
			}
		})
	}
}

// TestDiscriminationProperty: no window ever delivers the same sequence
// number twice (the paper's Discrimination condition), for random streams.
func TestDiscriminationProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(100)
		for name, win := range allWindows(w) {
			delivered := make(map[uint64]int)
			base := uint64(1)
			for _, r := range raw {
				s := base + uint64(r%200)
				if r%3 == 0 && base > uint64(r) {
					s = base - uint64(r%100)
				}
				if s > base {
					base = s
				}
				if win.Admit(s).Deliver() {
					delivered[s]++
					if delivered[s] > 1 {
						t.Logf("%s delivered %d twice", name, s)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWDeliveryProperty: with reorder degree < w and no loss, every message
// is delivered exactly once (the paper's w-Delivery condition).
func TestWDeliveryProperty(t *testing.T) {
	const w = 32
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 500
		// Build an arrival order in which no message suffers a reorder of
		// degree >= w: at every step only sequence numbers less than
		// (oldest pending)+w may arrive.
		pending := make([]uint64, n)
		for i := range pending {
			pending[i] = uint64(i + 1)
		}
		seqs := make([]uint64, 0, n)
		for len(pending) > 0 {
			lim := pending[0] + w
			k := 0
			for k < len(pending) && pending[k] < lim {
				k++
			}
			idx := rng.Intn(k)
			seqs = append(seqs, pending[idx])
			pending = append(pending[:idx], pending[idx+1:]...)
		}
		for name, win := range allWindows(w) {
			delivered := 0
			for _, s := range seqs {
				if win.Admit(s).Deliver() {
					delivered++
				}
			}
			if delivered != n {
				t.Logf("%s delivered %d of %d", name, delivered, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBitmapWordBoundaries(t *testing.T) {
	win := NewBitmap(64)
	// Advance to just below a word boundary, then cross it.
	for _, s := range []uint64{63, 64, 65, 127, 128, 192} {
		if d := win.Admit(s); d != DecisionNew {
			t.Fatalf("Admit(%d) = %v, want new", s, d)
		}
	}
	// In-window unseen values across word boundaries (edge is 192, so the
	// window covers [129, 192]).
	if d := win.Admit(190); d != DecisionInWindow {
		t.Errorf("Admit(190) = %v, want in-window", d)
	}
	if d := win.Admit(129); d != DecisionInWindow {
		t.Errorf("Admit(129) = %v, want in-window (exactly left edge)", d)
	}
	if d := win.Admit(128); d != DecisionStale {
		t.Errorf("Admit(128) = %v, want stale (was admitted, but lies below window)", d)
	}
}

func TestBitmapHugeJump(t *testing.T) {
	win := NewBitmap(128)
	win.Admit(5)
	win.Admit(7)
	// Jump that wraps the ring several times over.
	if d := win.Admit(1 << 40); d != DecisionNew {
		t.Fatalf("huge jump = %v, want new", d)
	}
	// The ring must be fully cleared: in-window unseen values deliver.
	if d := win.Admit(1<<40 - 100); d != DecisionInWindow {
		t.Errorf("Admit(edge-100) = %v, want in-window", d)
	}
	if d := win.Admit(7); d != DecisionStale {
		t.Errorf("Admit(7) = %v, want stale", d)
	}
}

func TestNewBoolPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBool(0) should panic")
		}
	}()
	NewBool(0)
}

func TestNewBitmapPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBitmap(-1) should panic")
		}
	}()
	NewBitmap(-1)
}

func TestInferESNPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InferESN with w=0 should panic (ww-1 underflows)")
		}
	}()
	InferESN(100, 50, 0)
}

func TestSeenReporting(t *testing.T) {
	for name, win := range allWindows(64) {
		t.Run(name, func(t *testing.T) {
			type seenReporter interface{ Seen(uint64) bool }
			sr, ok := win.(seenReporter)
			if !ok {
				t.Fatalf("%T does not expose Seen", win)
			}
			win.Admit(100)
			win.Admit(50)
			if !sr.Seen(100) || !sr.Seen(50) {
				t.Error("delivered numbers must report seen")
			}
			if sr.Seen(99) {
				t.Error("unseen in-window number must report unseen")
			}
			if !sr.Seen(20) {
				t.Error("stale numbers must report seen (cannot discriminate)")
			}
			if sr.Seen(101) {
				t.Error("future numbers must report unseen")
			}
		})
	}
}

func TestInferESNWithinSubspace(t *testing.T) {
	const w = 64
	tests := []struct {
		name string
		edge uint64
		lo   uint32
		want uint64
	}{
		{"in window", 1000, 990, 990},
		{"at edge", 1000, 1000, 1000},
		{"future same subspace", 1000, 5000, 5000},
		{"below window wraps to next", 1 << 33, 5, 2<<32 + 5},
		{"high subspace in window", 5<<32 + 1000, 990, 5<<32 + 990},
		{"high subspace below window", 5<<32 + 1000, 900, 6<<32 + 900},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InferESN(tt.edge, tt.lo, w); got != tt.want {
				t.Errorf("InferESN(%#x, %#x, %d) = %#x, want %#x",
					tt.edge, tt.lo, w, got, tt.want)
			}
		})
	}
}

func TestInferESNStraddling(t *testing.T) {
	const w = 64
	// Edge just above a subspace boundary: Tl = 10 < w-1, Th = 3.
	edge := uint64(3)<<32 + 10
	// Low lo values belong to the current subspace.
	if got := InferESN(edge, 5, w); got != uint64(3)<<32+5 {
		t.Errorf("low lo: got %#x", got)
	}
	// lo in the wrapped window tail belongs to the previous subspace.
	var below uint32 = w - 1 - 10
	tail := uint32(0) - below + 5 // a value >= wrapped low end
	want := uint64(2)<<32 | uint64(tail)
	if got := InferESN(edge, tail, w); got != want {
		t.Errorf("wrapped tail: got %#x, want %#x", got, want)
	}
	// lo in the future gap (above Tl, below wrapped low end): current.
	if got := InferESN(edge, 100000, w); got != uint64(3)<<32+100000 {
		t.Errorf("future gap: got %#x", got)
	}
}

func TestInferESNClampAtZero(t *testing.T) {
	// Th == 0 with a straddling-shaped window: no previous subspace exists.
	edge := uint64(10) // Tl = 10 < w-1, Th = 0
	got := InferESN(edge, ^uint32(0), 64)
	if got>>32 != 0 {
		t.Errorf("clamped hi = %d, want 0", got>>32)
	}
}

// TestInferESNRoundTrip: for a sliding 64-bit edge and wire values within
// the window or a bounded distance ahead, inference recovers the true seq.
func TestInferESNRoundTrip(t *testing.T) {
	const w = 128
	f := func(rawEdge uint64, delta uint16, ahead bool) bool {
		edge := rawEdge % (1 << 40)
		if edge < w {
			edge += w
		}
		var s uint64
		if ahead {
			s = edge + uint64(delta%10000) + 1
		} else {
			d := uint64(delta % (w - 1))
			s = edge - d
		}
		got := InferESN(edge, uint32(s), w)
		return got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWAccessors(t *testing.T) {
	if got := NewBool(17).W(); got != 17 {
		t.Errorf("Bool.W = %d, want 17", got)
	}
	if got := NewBitmap(17).W(); got != 17 {
		t.Errorf("Bitmap.W = %d, want 17", got)
	}
}

func TestDecisionNamesComplete(t *testing.T) {
	for d := DecisionNew; d <= DecisionStale; d++ {
		if strings.HasPrefix(d.String(), "decision(") {
			t.Errorf("decision %d lacks a name", d)
		}
	}
}
