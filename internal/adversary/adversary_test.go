package adversary

import (
	"sync"
	"testing"
	"time"

	"antireplay/internal/netsim"
)

type pkt struct {
	seq   uint64
	fresh bool
}

func TestRecorderTapAndMessages(t *testing.T) {
	r := NewRecorder[pkt]()
	tap := r.Tap()
	tap(pkt{seq: 1, fresh: true})
	tap(pkt{seq: 2, fresh: true})
	r.Record(pkt{seq: 3})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	msgs := r.Messages()
	if len(msgs) != 3 || msgs[0].seq != 1 || msgs[2].seq != 3 {
		t.Errorf("Messages = %v", msgs)
	}
	// Messages returns a copy.
	msgs[0].seq = 99
	if r.Messages()[0].seq == 99 {
		t.Error("Messages must return a copy")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder[uint64]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tap := r.Tap()
			for i := 0; i < 500; i++ {
				tap(uint64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 4000 {
		t.Errorf("Len = %d, want 4000", r.Len())
	}
}

func replaySetup(t *testing.T, seed int64) (*netsim.Engine, *netsim.Link[pkt], *Recorder[pkt], *Replayer[pkt], *[]pkt) {
	t.Helper()
	e := netsim.NewEngine(seed)
	var delivered []pkt
	link := netsim.NewLink(e, netsim.LinkConfig{Delay: time.Millisecond}, func(p pkt) {
		delivered = append(delivered, p)
	})
	rec := NewRecorder[pkt]()
	link.Tap(func(p pkt) {
		rec.Record(pkt{seq: p.seq, fresh: false}) // record replay-ready copies
	})
	rep := NewReplayer[pkt](e, link, rec)
	return e, link, rec, rep, &delivered
}

func TestReplayAllAtInOrder(t *testing.T) {
	e, link, _, rep, delivered := replaySetup(t, 1)
	for s := uint64(1); s <= 5; s++ {
		link.Send(pkt{seq: s, fresh: true})
	}
	e.Run()
	*delivered = nil

	n := rep.ReplayAllAt(10*time.Millisecond, 100*time.Microsecond)
	if n != 5 {
		t.Fatalf("scheduled %d, want 5", n)
	}
	e.Run()
	if len(*delivered) != 5 {
		t.Fatalf("delivered %d, want 5", len(*delivered))
	}
	for i, p := range *delivered {
		if p.seq != uint64(i+1) {
			t.Errorf("replay %d = seq %d, want %d", i, p.seq, i+1)
		}
		if p.fresh {
			t.Errorf("replay %d marked fresh", i)
		}
	}
	if rep.Injected() != 5 {
		t.Errorf("Injected = %d, want 5", rep.Injected())
	}
}

func TestReplayBypassesLoss(t *testing.T) {
	e := netsim.NewEngine(5)
	var delivered []pkt
	link := netsim.NewLink(e, netsim.LinkConfig{LossProb: 1}, func(p pkt) {
		delivered = append(delivered, p)
	})
	rec := NewRecorder[pkt]()
	rec.Record(pkt{seq: 42})
	rep := NewReplayer[pkt](e, link, rec)
	rep.ReplayAllAt(0, time.Microsecond)
	e.Run()
	if len(delivered) != 1 {
		t.Errorf("delivered %d, want 1 (injections bypass loss)", len(delivered))
	}
}
