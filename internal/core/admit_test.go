package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/seqwin"
	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

func newMemReceiver(t *testing.T, cfg ReceiverConfig) (*Receiver, *store.Mem) {
	t.Helper()
	var m store.Mem
	cfg.Store = &m
	r, err := NewReceiver(cfg)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	return r, &m
}

// TestFastPathDifferential drives one seeded serial stream of admits, resets
// and wakes through the default receiver (a Bitmap window) and through one
// handed the paper's Bool array. Verdict, edge, delivery tallies and the
// saved value must match at every step, for every protocol variant and
// across the word boundaries of the ring, and each receiver's delivery tally
// must count exactly its delivered verdicts. The baseline variant has no
// oracle: the paper's array never assigns wdw[w] on a slide, so after the
// baseline's cleared restart it delivers a replay of the right edge — the
// unprotected protocol's own flaw, not a window to agree with. (The name is
// kept from when the default receiver admitted on a separate lock-free
// path.)
func TestFastPathDifferential(t *testing.T) {
	variants := []struct {
		name string
		cfg  ReceiverConfig
	}{
		{"resilient", ReceiverConfig{K: 10}},
		{"baseline", ReceiverConfig{Baseline: true}},
		{"strict", ReceiverConfig{K: 10, StrictHorizon: true}},
	}
	for _, variant := range variants {
		for _, w := range []int{1, 5, 63, 64, 65, 1024} {
			cfg := variant.cfg
			cfg.W = w
			t.Run(fmt.Sprintf("%s/W=%d", variant.name, w), func(t *testing.T) {
				differentialStream(t, cfg)
			})
		}
	}
}

func differentialStream(t *testing.T, cfg ReceiverConfig) {
	type peer struct {
		name string
		r    *Receiver
		m    *store.Mem
	}
	mk := func(name string, win seqwin.Window) peer {
		c := cfg
		c.Window = win
		r, m := newMemReceiver(t, c)
		return peer{name, r, m}
	}
	peers := []peer{mk("default", nil)}
	if !cfg.Baseline {
		peers = append(peers, mk("bool", seqwin.NewBool(cfg.W)))
	}
	type observed struct {
		v                    Verdict
		edge                 uint64
		delivered, discarded uint64
		saved                uint64
	}
	observe := func(p peer, s uint64) observed {
		o := observed{v: p.r.Admit(s), edge: p.r.Edge()}
		st := p.r.Stats()
		o.delivered, o.discarded = st.Delivered, st.Discarded
		o.saved, _ = p.m.Peek()
		return o
	}

	rng := rand.New(rand.NewSource(42))
	base, down, delivered := uint64(1), false, uint64(0)
	for i := 0; i < 1500; i++ {
		switch {
		case !down && rng.Intn(150) == 0:
			for _, p := range peers {
				p.r.Reset()
			}
			down = true
			continue
		case down && rng.Intn(4) == 0:
			for _, p := range peers {
				p.r.Wake()
			}
			down = false
			continue
		}
		var s uint64
		switch rng.Intn(10) {
		case 0: // a loss jump, past the strict horizon more often than not
			s = base + uint64(rng.Intn(200))
		case 1: // reordering and replays, inside the window and below it
			s = base - min(uint64(rng.Intn(2*cfg.W+2)), base-1)
		default:
			s = base + uint64(rng.Intn(4))
		}
		base = max(base, s)
		want := observe(peers[0], s)
		if want.v.Delivered() {
			delivered++
		}
		if want.delivered != delivered {
			t.Fatalf("step %d: Admit(%d): Stats().Delivered = %d after %d delivered verdicts", i, s, want.delivered, delivered)
		}
		for _, p := range peers[1:] {
			if got := observe(p, s); got != want {
				t.Fatalf("step %d: Admit(%d): %s=%+v default=%+v", i, s, p.name, got, want)
			}
		}
	}
}

// TestConcurrentExactlyOnce hammers one receiver from many goroutines while
// resets and wakes fire concurrently; no sequence number may ever be
// delivered twice across the whole history, whether by Admit or by the
// Drain of a wake's buffer, and once everything has quiesced Stats counts
// exactly those deliveries. Run with -race. The receiver is strict: without
// the horizon a stalled SAVE hand-off breaks the paper's K >=
// T_save/T_send and the duplicate is the protocol's own
// (TestPaperProtocolLossJumpViolation pins that one deterministically).
func TestConcurrentExactlyOnce(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const (
		goroutines = 8
		perG       = 10000
		span       = 64 * goroutines * perG
	)
	var (
		delivered sync.Map // seq -> struct{}
		count     atomic.Uint64
		next      atomic.Uint64
		wg        sync.WaitGroup
	)
	deliver := func(s uint64) {
		count.Add(1)
		if _, dup := delivered.LoadOrStore(s, struct{}{}); dup {
			t.Errorf("sequence %d delivered twice", s)
		}
	}
	r, _ := newMemReceiver(t, ReceiverConfig{K: 50, W: 256, StrictHorizon: true, Drain: func(s uint64, v Verdict) {
		if v.Delivered() {
			deliver(s)
		}
	}})

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*17 + 1))
			for i := 0; i < perG; i++ {
				s := next.Add(1)
				if rng.Intn(4) == 0 { // replay something recent
					d := uint64(rng.Intn(300) + 1)
					if d < s {
						s -= d
					}
				}
				if s > span {
					s = span
				}
				if r.Admit(s).Delivered() {
					deliver(s)
				}
			}
		}(g)
	}
	// One goroutine cycles reset/wake under load: the receiver must hand
	// off cleanly at every lifecycle transition. The cycle count is bounded
	// and yields between cycles so admitters keep making progress.
	stop := make(chan struct{})
	var cycles sync.WaitGroup
	cycles.Add(1)
	go func() {
		defer cycles.Done()
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Reset()
			r.Wake()
			for y := 0; y < 50; y++ {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	cycles.Wait()
	if got, want := r.Stats().Delivered, count.Load(); got != want {
		t.Errorf("Stats().Delivered = %d, want the %d delivered Admit and Drain verdicts", got, want)
	}

	// After a wake the window re-admits nothing it delivered before: replay
	// the entire delivered set and require zero deliveries.
	r.Reset()
	r.Wake()
	delivered.Range(func(k, _ any) bool {
		if v := r.Admit(k.(uint64)); v.Delivered() {
			t.Errorf("post-wake replay of %d delivered (verdict %v)", k.(uint64), v)
			return false
		}
		return true
	})
}

// TestStrictHorizon verifies a strict receiver never delivers at or beyond
// committed+leap: horizon messages come back VerdictHorizon until the save
// that extends the horizon lands.
func TestStrictHorizon(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	var m store.Mem
	saver := &HeldSaver{Store: &m}
	r, err := NewReceiver(ReceiverConfig{
		K: 10, W: 64, Store: &m, Saver: saver,
		StrictHorizon: true,
	})
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	// committed = 0, leap = 2K = 20: numbers below 20 deliver, 20+ discard.
	for s := uint64(1); s < 20; s++ {
		if v := r.Admit(s); !v.Delivered() {
			t.Fatalf("Admit(%d) = %v below horizon, want delivery", s, v)
		}
	}
	if v := r.Admit(20); v != VerdictHorizon {
		t.Fatalf("Admit(20) = %v at horizon with saves blocked, want horizon", v)
	}
	saver.CommitAll() // let the queued saves land
	// committed advanced; the stream resumes.
	if v := r.Admit(21); !v.Delivered() {
		t.Errorf("Admit(21) after save landed = %v, want delivery", v)
	}
}

// TestTriggersSaves checks the "edge advanced >= K" SAVE trigger of a strict
// receiver: a long in-order stream must keep lst within K of the edge and
// actually persist values.
func TestTriggersSaves(t *testing.T) {
	r, m := newMemReceiver(t, ReceiverConfig{K: 25, W: 64, StrictHorizon: true})
	for s := uint64(1); s <= 1000; s++ {
		r.Admit(s)
	}
	if got := r.LastStored(); got < 1000-25 {
		t.Errorf("lst = %d after 1000 in-order admits with K=25, want >= %d", got, 1000-25)
	}
	if v, ok := m.Peek(); !ok || v < 1000-25 {
		t.Errorf("persisted edge = %d (ok=%v), want >= %d", v, ok, 1000-25)
	}
	st := r.Stats()
	if st.SavesStarted < 30 {
		t.Errorf("SavesStarted = %d, want roughly 1000/25 = 40", st.SavesStarted)
	}
}

// TestConcurrentSaves runs concurrent admitters with background-style saves
// under -race, then resets and wakes: the recovered edge must leap past
// everything delivered, so no pre-reset number is re-accepted.
func TestConcurrentSaves(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const goroutines = 4
	r, _ := newMemReceiver(t, ReceiverConfig{K: 20, W: 128, StrictHorizon: true})
	var next atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Admit(next.Add(1))
			}
		}()
	}
	wg.Wait()
	high := next.Load()
	r.Reset()
	r.Wake()
	if r.State() != StateUp {
		t.Fatalf("receiver not up after wake: %v", r.LastWakeError())
	}
	if edge := r.Edge(); edge < high {
		// lst trails the live edge by at most K=20 and the wake adds 2K=40,
		// so the recovered edge can never fall below the pre-reset edge.
		t.Errorf("post-wake edge %d below pre-reset edge %d", edge, high)
	}
	for s := uint64(1); s <= high; s += 97 {
		if v := r.Admit(s); v.Delivered() {
			t.Errorf("pre-reset number %d re-delivered after wake (verdict %v)", s, v)
		}
	}
}

func TestNextHorizonBackpressure(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	var m store.Mem
	saver := &HeldSaver{Store: &m}
	x, err := NewSender(SenderConfig{K: 10, Store: &m, Saver: saver, StrictHorizon: true})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	// committed = 1, leap = 20: horizon is 21, so 20 numbers are available.
	for want := uint64(1); want <= 20; want++ {
		if seq, err := x.Next(); err != nil || seq != want {
			t.Fatalf("Next = (%d, %v), want (%d, nil)", seq, err, want)
		}
	}
	if _, err = x.Next(); err != ErrSaveLag {
		t.Fatalf("Next at horizon = %v, want ErrSaveLag", err)
	}
	if st := x.Stats(); st.Sent != 20 {
		t.Errorf("Sent = %d after a refused Next, want 20", st.Sent)
	}
	saver.CommitAll()
	if seq, err := x.Next(); err != nil || seq != 21 {
		t.Errorf("Next after save landed = (%d, %v), want (21, nil)", seq, err)
	}
}

func TestNextDownAndWaking(t *testing.T) {
	var m store.Mem
	x, err := NewSender(SenderConfig{K: 5, Store: &m})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	x.Reset()
	if _, err := x.Next(); err != ErrDown {
		t.Errorf("Next while down = %v, want ErrDown", err)
	}
	x.Wake()
	if _, err := x.Next(); err != nil {
		t.Errorf("Next after wake = %v, want a number", err)
	}
}

var errFlaky = errors.New("flaky medium")

// TestFailedSaveRetriesSameValue pins the saveHi rollback in saveDone: after
// a failed horizon-extension save, a retransmission re-triggering the SAME
// save value must be handed to the saver again — not deduplicated as
// "already on its way" — or the horizon never extends and the stream wedges.
func TestFailedSaveRetriesSameValue(t *testing.T) {
	var m store.Mem
	saver := &HeldSaver{Store: &m}
	r, err := NewReceiver(ReceiverConfig{
		K: 10, W: 64, Store: &m, Saver: saver, StrictHorizon: true,
	})
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	// Horizon = committed(0) + 2K(20): 25 lands beyond it, triggering the
	// horizon-extension save, which fails.
	if v := r.Admit(25); v != VerdictHorizon || !saver.Fail(errFlaky) {
		t.Fatalf("Admit(25) = %v with %d saves started, want horizon and one save", v, r.Stats().SavesStarted)
	}
	// The retransmission must re-trigger the same save; with the dedup
	// watermark stuck this second save would be dropped and 25 discarded
	// forever.
	if v := r.Admit(25); v != VerdictHorizon || !saver.Commit() {
		t.Fatalf("retransmitted Admit(25) = %v, want horizon and the save handed over again", v)
	}
	if v := r.Admit(25); !v.Delivered() {
		t.Fatalf("Admit(25) after retried save landed = %v, want delivery", v)
	}
	if st := r.Stats(); st.SavesFailed != 1 || st.SavesOK == 0 {
		t.Errorf("stats = %+v, want exactly one failed and at least one ok save", st)
	}
}
