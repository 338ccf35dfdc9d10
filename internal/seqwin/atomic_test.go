package seqwin

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAtomicDifferentialBoundaries runs Atomic and Bitmap in lockstep over
// adversarial serial streams anchored at the edges the ESN machinery cares
// about: 0, 1, and the 2^32 subspace boundary.
func TestAtomicDifferentialBoundaries(t *testing.T) {
	anchors := []uint64{0, 1, 1<<32 - 200, 1 << 32, 1<<32 + 3}
	for _, w := range []int{1, 64, 100, 1024} {
		for _, anchor := range anchors {
			rng := rand.New(rand.NewSource(int64(w)*31 + int64(anchor%977)))
			at, bm := NewAtomic(w), NewBitmap(w)
			if anchor > 0 {
				at.Reinit(anchor, false)
				bm.Reinit(anchor, false)
			}
			base := anchor
			for i := 0; i < 4000; i++ {
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
				da, db := at.Admit(s), bm.Admit(s)
				if da != db {
					t.Fatalf("w=%d anchor=%d step %d: Admit(%d): atomic=%v bitmap=%v",
						w, anchor, i, s, da, db)
				}
				if at.Edge() != bm.Edge() {
					t.Fatalf("w=%d anchor=%d step %d: edge: atomic=%d bitmap=%d",
						w, anchor, i, at.Edge(), bm.Edge())
				}
			}
		}
	}
}

// TestAtomicConcurrentExactlyOnce is the load-bearing race test: many
// goroutines admit an overlapping mix of fresh and replayed numbers, and no
// number may ever be delivered twice — the Discrimination property under
// concurrency. Run with -race.
func TestAtomicConcurrentExactlyOnce(t *testing.T) {
	const (
		goroutines = 8
		perG       = 20000
		span       = 40000
	)
	win := NewAtomic(128)
	delivered := make([]atomic.Uint32, span+1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < perG; i++ {
				// Mostly walk forward, frequently replay recent numbers so
				// goroutines collide on the same bits.
				s := uint64(g + i*2 + 1)
				if rng.Intn(3) == 0 {
					s = uint64(rng.Intn(i*2+2) + 1)
				}
				if s > span {
					s = span
				}
				if win.Admit(s).Deliver() {
					delivered[s].Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	for s := range delivered {
		if n := delivered[s].Load(); n > 1 {
			t.Fatalf("sequence %d delivered %d times", s, n)
		}
	}
}

// TestAtomicConcurrentSlides hammers the recycle path: goroutines race huge
// edge advances (which lap the ring) against in-window admits and replays.
// Exactly-once must survive; run with -race.
func TestAtomicConcurrentSlides(t *testing.T) {
	const goroutines = 8
	win := NewAtomic(64)
	var next atomic.Uint64
	deliveredOnce := sync.Map{} // seq -> struct{}; double insert of a delivery is a bug
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 131))
			for i := 0; i < 5000; i++ {
				var s uint64
				switch rng.Intn(4) {
				case 0: // jump far ahead: laps the whole ring
					s = next.Add(10_000)
				case 1: // replay something old
					s = uint64(rng.Intn(int(next.Load())+2) + 1)
				default: // creep forward
					s = next.Add(1)
				}
				if win.Admit(s).Deliver() {
					if _, dup := deliveredOnce.LoadOrStore(s, struct{}{}); dup {
						t.Errorf("sequence %d delivered twice", s)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAtomicReinitAllSeen mirrors TestReinitAllSeen but also checks the
// slot/tag bookkeeping survives a post-wake install above the ring span.
func TestAtomicReinitAllSeen(t *testing.T) {
	win := NewAtomic(64)
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

// TestAtomicReinstallGrid checks the one-pass reinstall — as a constructor
// (NewAtomicAt) and in place on a used window (Reinit) — against the paper's
// Bool window, whose Reinit stays one assignment per entry so it is
// obviously right: widths around the word size, edges around zero, the
// window width, word boundaries, the ring size and 2^32, full and empty.
func TestAtomicReinstallGrid(t *testing.T) {
	for _, w := range []int{1, 63, 64, 65, 1000, 1024} {
		uw := uint64(w)
		edges := []uint64{0, 1, uw - 1, uw, uw + 1, 1<<32 - 1, 1<<32 + 1}
		for _, k := range []uint64{1, 17, 32, 33} {
			edges = append(edges, 64*k-1, 64*k, 64*k+1)
		}
		for _, edge := range edges {
			for _, allSeen := range []bool{true, false} {
				used := NewAtomic(w)
				for s := uint64(1); s <= uw+70; s += 1 + s%3 {
					used.Admit(s)
				}
				used.Reinit(edge, allSeen)
				for name, at := range map[string]*Atomic{"NewAtomicAt": NewAtomicAt(w, edge, allSeen), "Reinit": used} {
					oracle := NewBool(w)
					oracle.Reinit(edge, allSeen)
					checkReinstalled(t, fmt.Sprintf("%s(w=%d, edge=%d, allSeen=%v)", name, w, edge, allSeen), at, oracle, allSeen)
				}
			}
		}
	}
}

func checkReinstalled(t *testing.T, name string, at *Atomic, oracle *Bool, allSeen bool) {
	t.Helper()
	w, edge := uint64(at.W()), oracle.Edge()
	if at.Edge() != edge {
		t.Fatalf("%s: Edge() = %d", name, at.Edge())
	}
	lo := uint64(0)
	if edge > w+2 {
		lo = edge - w - 2
	}
	for s := lo; s <= edge+2; s++ {
		if got, want := at.Seen(s), oracle.Seen(s); got != want {
			t.Fatalf("%s: Seen(%d) = %v, oracle says %v", name, s, got, want)
		}
	}
	wantOcc := 0
	if allSeen {
		wantOcc = int(min(edge, w))
	}
	if got := at.Occupancy(); got != wantOcc {
		t.Fatalf("%s: Occupancy() = %d, want %d", name, got, wantOcc)
	}
	if got := at.Delivered(); got != 0 {
		t.Fatalf("%s: Delivered() = %d right after the reinstall, want 0", name, got)
	}
	// Traffic across the reinstalled window: in-window numbers, replays and
	// enough fresh ones to recycle every pre-marked word. Decisions match
	// the oracle and Delivered counts exactly the deliveries. (A cleared
	// Bool deliberately drops the paper's right-edge invariant — see
	// Bool.Reinit — so the cleared window's traffic is judged by Bitmap.)
	var traffic Window = oracle
	if !allSeen {
		traffic = NewBitmap(at.W())
		traffic.Reinit(edge, false)
	}
	var delivered uint64
	admit := func(s uint64) {
		da, db := at.Admit(s), traffic.Admit(s)
		if da != db {
			t.Fatalf("%s: Admit(%d) = %v, oracle says %v", name, s, da, db)
		}
		if da.Deliver() {
			delivered++
		}
	}
	for s := lo; s <= edge; s += 1 + s%2 {
		admit(s)
	}
	for s := edge + 1; s <= edge+w+130; s += 1 + s%7 {
		admit(s)
		admit(s - min(s-1, w/2))
	}
	if got := at.Delivered(); got != delivered {
		t.Fatalf("%s: Delivered() = %d after %d deliveries", name, got, delivered)
	}
}

// TestAtomicReinstallRacesAdmits is what a receiver's reset and wake do to
// the window, with traffic running: unpublish it, build its successor past
// everything drawn so far with every entry marked, publish that. Admits that
// loaded the superseded window finish against it; nothing either window
// delivered may be delivered again. Run with -race: the successor is filled
// before it is published, and the publication is what orders the fill before
// the first admit.
func TestAtomicReinstallRacesAdmits(t *testing.T) {
	const (
		goroutines = 4
		lives      = 100
		span       = 1 << 20
	)
	var (
		live      atomic.Pointer[Atomic]
		next      atomic.Uint64
		stop      atomic.Bool
		delivered = make([]atomic.Uint32, span)
		wg        sync.WaitGroup
	)
	live.Store(NewAtomic(1024))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for !stop.Load() {
				// The number is on the wire before the window is looked up,
				// as a packet is: whatever window this admit ends up holding,
				// every successor was built after s was drawn.
				s := next.Add(1)
				if rng.Intn(3) == 0 {
					s -= min(s-1, uint64(rng.Intn(1500)))
				}
				win := live.Load()
				if win == nil {
					continue // down: the message is unobserved
				}
				if s < span && win.Admit(s).Deliver() {
					delivered[s].Add(1)
				}
			}
		}(g)
	}
	for i := 0; i < lives && next.Load() < span-4096; i++ {
		for at := next.Load(); next.Load() < at+300; {
			runtime.Gosched() // let the life see some traffic
		}
		live.Store(nil)
		live.Store(NewAtomicAt(1024, next.Load(), true))
	}
	stop.Store(true)
	wg.Wait()
	for s := range delivered {
		if n := delivered[s].Load(); n > 1 {
			t.Fatalf("sequence %d delivered %d times", s, n)
		}
	}
}

func TestNewAtomicPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAtomic(0) should panic")
		}
	}()
	NewAtomic(0)
}

func TestInferESNPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InferESN with w=0 should panic (ww-1 underflows)")
		}
	}()
	InferESN(100, 50, 0)
}
