package apn

// Differential tests: the paper's processes and the production
// implementation in internal/core must make identical decisions on
// identical schedules of sends, receives, save commits, resets, and wakes,
// and leave the same value in the persistent cell.

import (
	"math/rand"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

func TestDifferentialSenderAPNvsCore(t *testing.T) {
	rows := []struct {
		name string
		cfg  core.SenderConfig
	}{
		{"resilient", core.SenderConfig{K: 5}},
		{"baseline", core.SenderConfig{Baseline: true}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				differentialSender(t, seed, row.cfg, NewPaperSender(row.cfg.K, !row.cfg.Baseline))
			}
		})
	}
}

func differentialSender(t *testing.T, seed int64, cfg core.SenderConfig, ap *PaperSender) {
	var mem store.Mem
	sv := &core.HeldSaver{Store: &mem} // commits mirror p's Save action
	cfg.Store, cfg.Saver = &mem, sv
	cs, err := core.NewSender(cfg)
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}

	rng := rand.New(rand.NewSource(seed * 97))
	down := false
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(10); {
		case r < 6 && !down: // send on both
			apnSeq, ok := ap.Send()
			if !ok {
				t.Fatal("apn send not enabled")
			}
			coreSeq, err := cs.Next()
			if err != nil {
				t.Fatalf("core Next: %v", err)
			}
			if apnSeq != coreSeq {
				t.Fatalf("seed %d step %d: seq diverged: apn %d core %d", seed, step, apnSeq, coreSeq)
			}
		case r == 6: // commit pending saves on both
			ap.Save()
			sv.CommitAll()
		case r == 7 && !down: // reset both
			ap.Reset()
			cs.Reset()
			down = true
		case r == 8 && down: // wake both (p's wake is atomic incl. save)
			ap.Wake()
			cs.Wake()
			sv.CommitAll() // complete the core post-wake save
			down = false
		}
		if !down {
			if ap.S != cs.Seq() {
				t.Fatalf("seed %d step %d: counter diverged: apn %d core %d", seed, step, ap.S, cs.Seq())
			}
			if ap.Lst != cs.LastStored() {
				t.Fatalf("seed %d step %d: lst diverged: apn %d core %d", seed, step, ap.Lst, cs.LastStored())
			}
			checkCell(t, seed, step, &ap.cell, &mem)
		}
	}
}

// checkCell compares the model's persistent cell with the medium core saved
// to.
func checkCell(t *testing.T, seed int64, step int, c *cell, mem *store.Mem) {
	t.Helper()
	av, aok := c.Durable()
	mv, mok := mem.Peek()
	if av != mv || aok != mok {
		t.Fatalf("seed %d step %d: persistent cell diverged: apn %d %v core %d %v", seed, step, av, aok, mv, mok)
	}
}

// TestDifferentialReceiverAPNvsCore runs the production receiver, with its
// default seqwin.Bitmap window, against q, whose window is the paper's
// seqwin.Bool array. The first row resets about every ten steps, so the
// window is mostly freshly all-seen after a wake; the second resets rarely
// and replays numbers from [edge-W, edge], the part of the window where a
// lost mark would re-deliver.
//
// There is no §2 baseline row: the cleared window of q's baseline wake
// never marks its right edge again (a slide does not assign wdw[w]), so q
// re-delivers numbers that Bitmap discards — the unprotected protocol's own
// flaw, not a window to agree with (see internal/core/admit_test.go:35).
func TestDifferentialReceiverAPNvsCore(t *testing.T) {
	// Each step draws r in [0, n): r < admits admits, admits <= r < saves
	// commits, r == saves resets, r == saves+1 wakes, and anything above
	// idles.
	rows := []struct {
		name             string
		n, admits, saves int
		windowReplays    bool
	}{
		{"frequent resets", 10, 6, 7, false},
		{"rare resets, replays in the window", 60, 50, 58, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				const (
					k = 7
					w = 16
				)
				aq := NewPaperReceiver(w, k, true)
				var mem store.Mem
				sv := &core.HeldSaver{Store: &mem} // commits mirror q's Save action
				cr, err := core.NewReceiver(core.ReceiverConfig{K: k, W: w, Store: &mem, Saver: sv})
				if err != nil {
					t.Fatalf("NewReceiver: %v", err)
				}

				rng := rand.New(rand.NewSource(seed * 101))
				down := false
				base := uint64(1)
				for step := 0; step < 3000; step++ {
					switch r := rng.Intn(row.n); {
					case r < row.admits && !down: // admit the same (possibly old) seq on both
						var s uint64
						edge := aq.Wdw.Edge()
						switch {
						case row.windowReplays && edge > 0 && rng.Intn(2) == 0:
							lo := max(edge, w+1) - w
							s = lo + uint64(rng.Int63n(int64(edge-lo+1)))
						case !row.windowReplays && rng.Intn(4) == 0 && base > 1:
							s = 1 + uint64(rng.Int63n(int64(base))) // replay-ish
						default:
							s = base + uint64(rng.Intn(3))
							base = s + 1
						}
						apnDelivered, _ := aq.Rcv(s)
						v := cr.Admit(s)
						if apnDelivered != v.Delivered() {
							t.Fatalf("seed %d step %d: verdict diverged on %d: apn %v core %v (edge apn %d core %d)",
								seed, step, s, apnDelivered, v, aq.Wdw.Edge(), cr.Edge())
						}
					case r >= row.admits && r < row.saves:
						aq.Save()
						sv.CommitAll()
					case r == row.saves && !down:
						aq.Reset()
						cr.Reset()
						down = true
					case r == row.saves+1 && down:
						aq.Wake()
						cr.Wake()
						sv.CommitAll()
						down = false
					}
					if !down {
						if aq.Wdw.Edge() != cr.Edge() {
							t.Fatalf("seed %d step %d: edge diverged: apn %d core %d", seed, step, aq.Wdw.Edge(), cr.Edge())
						}
						if aq.Lst != cr.LastStored() {
							t.Fatalf("seed %d step %d: lst diverged: apn %d core %d", seed, step, aq.Lst, cr.LastStored())
						}
						checkCell(t, seed, step, &aq.cell, &mem)
					}
				}
			}
		})
	}
}
