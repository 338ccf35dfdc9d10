package seqwin

import (
	"math/rand"
	"testing"
)

// TestDifferentialCampaignSchedules runs Bitmap and the paper's Bool in
// lockstep over ten thousand randomized campaign-shaped admit schedules —
// the traffic the adversary layer's stealth campaigns produce: window-edge
// hostages released deep behind the edge, edge-adjacent duplicate
// injections, save-storm loss bursts, blackout replay floods, and
// reset/wake-leap reinstalls. The two must agree bit for bit: same decision
// on every admit, same edge after it, same Seen verdict across and beyond
// the window. Every reinstall marks the window seen, the paper's post-wake
// state: a cleared Bool deliberately drops the right-edge invariant (see
// Bool.Reinit), so it is no oracle for a cleared install.
// (TestDifferential covers generic random walks; this pins the shapes
// campaigns actually generate, at 10x the schedule count.)
func TestDifferentialCampaignSchedules(t *testing.T) {
	const schedules = 10_000
	widths := []int{32, 64, 128, 256}

	for i := 0; i < schedules; i++ {
		rng := rand.New(rand.NewSource(int64(i)*2654435761 + 99))
		w := widths[rng.Intn(len(widths))]
		bm := NewBitmap(w)
		bo := NewBool(w)

		admit := func(step int, s uint64) {
			db, do := bm.Admit(s), bo.Admit(s)
			if db != do {
				t.Fatalf("schedule %d step %d w=%d: Admit(%d): Bitmap=%v Bool=%v",
					i, step, w, s, db, do)
			}
			if be, oe := bm.Edge(), bo.Edge(); be != oe {
				t.Fatalf("schedule %d step %d w=%d: after Admit(%d): edge Bitmap=%d Bool=%d",
					i, step, w, s, be, oe)
			}
		}

		next := uint64(1)
		var held []uint64    // the sniper's parked hostages, FIFO
		var history []uint64 // recent deliveries, the flood's capture
		record := func(s uint64) {
			history = append(history, s)
			if len(history) > 4*w {
				history = history[len(history)-4*w:]
			}
		}

		steps := 40 + rng.Intn(41)
		for step := 0; step < steps; step++ {
			switch rng.Intn(12) {
			case 0: // sniper parks a fresh number
				held = append(held, next)
				next++
			case 1: // a matured hostage arrives, possibly far below the edge
				if len(held) > 0 {
					s := held[0]
					held = held[1:]
					admit(step, s)
					record(s)
				}
			case 2: // edge-adjacent duplicate injection
				if len(history) > 0 {
					back := rng.Intn(min(len(history), w)) + 1
					admit(step, history[len(history)-back])
				}
			case 3: // save-storm strike: a burst of traffic is dropped
				next += uint64(rng.Intn(2*w) + 1)
			case 4: // blackout replay flood: re-send a captured run
				if len(history) > 0 {
					n := rng.Intn(min(len(history), 8)) + 1
					for _, s := range history[len(history)-n:] {
						admit(step, s)
					}
				}
			case 5: // reset + wake: both windows leap to the same edge
				leap := uint64(rng.Intn(2*w) + 1)
				edge := bm.Edge() + leap
				bm.Reinit(edge, true)
				bo.Reinit(edge, true)
				if be, oe := bm.Edge(), bo.Edge(); be != oe {
					t.Fatalf("schedule %d step %d w=%d: after Reinit(%d): edge Bitmap=%d Bool=%d",
						i, step, w, edge, be, oe)
				}
				if next <= edge {
					next = edge + 1
				}
			default: // in-order traffic
				admit(step, next)
				record(next)
				next++
			}
		}

		// Seen must agree bit-for-bit: deep-stale, in-window, above-edge.
		e := bm.Edge()
		lo := uint64(1)
		if e > uint64(2*w) {
			lo = e - uint64(2*w)
		}
		for s := lo; s <= e+uint64(w); s++ {
			if bs, os := bm.Seen(s), bo.Seen(s); bs != os {
				t.Fatalf("schedule %d w=%d: Seen(%d): Bitmap=%v Bool=%v (edge %d)",
					i, w, s, bs, os, e)
			}
		}
	}
}
