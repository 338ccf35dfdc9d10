package apn

// Differential tests: the paper's APN processes and the production
// implementation in internal/core must make identical decisions on
// identical schedules of sends, receives, save commits, resets, and wakes.

import (
	"math/rand"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/seqwin"
	"antireplay/internal/store"
)

func TestDifferentialSenderAPNvsCore(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		const k = 5
		sys := NewSystem(seed)
		ch := sys.Chan("p", "q")
		ap := NewPaperSender("p", ch, k, true)
		sys.Add(ap.Process())

		var mem store.Mem
		sv := &core.HeldSaver{Store: &mem} // commits mirror the APN "save" action
		cs, err := core.NewSender(core.SenderConfig{K: k, Store: &mem, Saver: sv})
		if err != nil {
			t.Fatalf("NewSender: %v", err)
		}

		rng := rand.New(rand.NewSource(seed * 97))
		down := false
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 6 && !down: // send on both
				if err := sys.Exec("p", "send"); err != nil {
					t.Fatalf("apn send: %v", err)
				}
				apnSeq := ap.S - 1
				coreSeq, err := cs.Next()
				if err != nil {
					t.Fatalf("core Next: %v", err)
				}
				if apnSeq != coreSeq {
					t.Fatalf("seed %d step %d: seq diverged: apn %d core %d", seed, step, apnSeq, coreSeq)
				}
			case r == 6: // commit pending saves on both
				if ap.SavePending() {
					_ = sys.Exec("p", "save")
				}
				sv.CommitAll()
			case r == 7 && !down: // reset both
				ap.RequestReset()
				_ = sys.Exec("p", "reset")
				cs.Reset()
				down = true
			case r == 8 && down: // wake both (APN wake is atomic incl. save)
				ap.RequestWake()
				_ = sys.Exec("p", "wake")
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
			}
		}
	}
}

func TestDifferentialReceiverAPNvsCore(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		const (
			k = 7
			w = 16
		)
		sys := NewSystem(seed)
		ch := sys.Chan("p", "q")
		aq := NewPaperReceiver("q", ch, w, k, true)
		sys.Add(aq.Process())

		var mem store.Mem
		sv := &core.HeldSaver{Store: &mem} // commits mirror the APN "save" action
		cr, err := core.NewReceiver(core.ReceiverConfig{
			K:      k,
			Store:  &mem,
			Saver:  sv,
			Window: seqwin.NewBool(w),
		})
		if err != nil {
			t.Fatalf("NewReceiver: %v", err)
		}

		rng := rand.New(rand.NewSource(seed * 101))
		down := false
		base := uint64(1)
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 6 && !down: // admit the same (possibly old) seq on both
				var s uint64
				if rng.Intn(4) == 0 && base > 1 {
					s = 1 + uint64(rng.Int63n(int64(base))) // replay-ish
				} else {
					s = base + uint64(rng.Intn(3))
					if s >= base {
						base = s + 1
					}
				}
				ch.Send(Msg{Tag: "msg", Seq: s})
				if err := sys.Exec("q", "rcv"); err != nil {
					t.Fatalf("apn rcv: %v", err)
				}
				apnDelivered := aq.Log[len(aq.Log)-1].Delivered
				v := cr.Admit(s)
				if apnDelivered != v.Delivered() {
					t.Fatalf("seed %d step %d: verdict diverged on %d: apn %v core %v (edge apn %d core %d)",
						seed, step, s, apnDelivered, v, aq.R, cr.Edge())
				}
			case r == 6:
				if aq.SavePending() {
					_ = sys.Exec("q", "save")
				}
				sv.CommitAll()
			case r == 7 && !down:
				aq.RequestReset()
				_ = sys.Exec("q", "reset")
				cr.Reset()
				down = true
			case r == 8 && down:
				aq.RequestWake()
				_ = sys.Exec("q", "wake")
				cr.Wake()
				sv.CommitAll()
				down = false
			}
			if !down {
				if aq.R != cr.Edge() {
					t.Fatalf("seed %d step %d: edge diverged: apn %d core %d", seed, step, aq.R, cr.Edge())
				}
				if aq.Lst != cr.LastStored() {
					t.Fatalf("seed %d step %d: lst diverged: apn %d core %d", seed, step, aq.Lst, cr.LastStored())
				}
			}
		}
	}
}
