package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/netsim"
	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

// hookStore runs onSave inside Save, before persisting: with an inline
// saver that is the deepest point of the caller's stack, and with a
// background one it is the saver's own goroutine.
type hookStore struct {
	store.Mem
	onSave func(v uint64)
}

func (h *hookStore) Save(v uint64) error {
	if h.onSave != nil {
		h.onSave(v)
	}
	return h.Mem.Save(v)
}

// saverKind builds one of the savers the pipeline must work with. run
// advances a simulated saver until nothing is in flight; stop waits for a
// real one's in-flight saves and shuts it down.
type saverKind struct {
	name string
	make func(st store.Store) (saver core.BackgroundSaver, run, stop func())
}

var saverKinds = []saverKind{
	{"SyncSaver", func(store.Store) (core.BackgroundSaver, func(), func()) {
		return nil, func() {}, func() {}
	}},
	{"PoolOfOne", func(st store.Store) (core.BackgroundSaver, func(), func()) {
		p := store.NewSaverPool(1)
		return p.Saver(st), func() {}, p.Close
	}},
	{"SaverPool", func(st store.Store) (core.BackgroundSaver, func(), func()) {
		p := store.NewSaverPool(2)
		return p.Saver(st), func() {}, p.Close
	}},
	{"SimSaver", func(st store.Store) (core.BackgroundSaver, func(), func()) {
		e := netsim.NewEngine(1)
		return netsim.NewSimSaver(e, st, time.Millisecond), e.Run, e.Run
	}},
}

// TestWakeDrainTriggersSaveFromCompletion is the regression test for the
// self-deadlock that kept tier-1 red: a message buffered during the
// post-wake SAVE lies K past the leaped edge, so deciding it — which the
// completion of that SAVE does — triggers the next SAVE. With a saver that
// completes inline the trigger arrives beneath the hand-off it completes;
// holding a lock across that hand-off wedges the caller of Wake forever.
// Deterministic: the message is admitted from inside the store's Save, so
// nothing races.
func TestWakeDrainTriggersSaveFromCompletion(t *testing.T) {
	const k = 10
	for _, kind := range saverKinds {
		for _, strict := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/strict=%v", kind.name, strict), func(t *testing.T) {
				watchdog.Arm(t, 5*time.Second)
				st := &hookStore{}
				saver, run, stop := kind.make(st)
				drained := make(chan core.Verdict, 1)
				r := mustReceiver(t, core.ReceiverConfig{
					K: k, W: 64, Store: st, Saver: saver,
					StrictHorizon: strict,
					Drain:         func(_ uint64, v core.Verdict) { drained <- v },
				})
				r.Reset()
				// The store held 0, so the wake saves the leaped edge 2K;
				// 3K arrives while that save is being written.
				st.onSave = func(v uint64) {
					st.onSave = nil
					if got := r.Admit(v + k); got != core.VerdictBuffered {
						t.Errorf("Admit(%d) during the post-wake save = %v, want buffered", v+k, got)
					}
				}
				r.Wake()
				run()
				if v := <-drained; !v.Delivered() {
					t.Errorf("buffered message decided %v, want delivery", v)
				}
				stop() // the save the drain triggered is durable past here
				if r.State() != core.StateUp {
					t.Fatalf("state = %v (wake error %v), want up", r.State(), r.LastWakeError())
				}
				if got, _ := st.Peek(); got != 3*k {
					t.Errorf("durable edge = %d, want %d: the drain's SAVE never reached the store", got, 3*k)
				}
				if r.LastStored() != 3*k || r.Committed() != 3*k {
					t.Errorf("lst = %d, committed = %d, want both %d", r.LastStored(), r.Committed(), 3*k)
				}
			})
		}
	}
}

// TestClosedPoolCompletesInline drives both endpoints over a PoolSaver
// whose pool has been closed: every StartSave completes inline with
// store.ErrClosed. Background saves fail and are retried on the next
// trigger; a wake-up fails and leaves the endpoint down; nothing blocks.
func TestClosedPoolCompletesInline(t *testing.T) {
	watchdog.Arm(t, 5*time.Second)
	const k = 10
	pool := store.NewSaverPool(1)
	var ms, mr store.Mem
	sndSaver, rcvSaver := pool.Saver(&ms), pool.Saver(&mr)
	pool.Close()

	x := mustSender(t, core.SenderConfig{K: k, Store: &ms, Saver: sndSaver})
	r := mustReceiver(t, core.ReceiverConfig{K: k, W: 64, Store: &mr, Saver: rcvSaver})
	sendN(t, x, 3*k)
	for s := uint64(1); s <= 3*k; s++ {
		r.Admit(s)
	}
	if st := x.Stats(); st.SavesFailed < 2 || st.SavesOK != 0 || x.Committed() != 1 {
		t.Errorf("sender stats = %+v, committed = %d; want every save failed and retried", st, x.Committed())
	}
	if st := r.Stats(); st.SavesFailed < 2 || st.SavesOK != 0 || r.Committed() != 0 {
		t.Errorf("receiver stats = %+v, committed = %d; want every save failed and retried", st, r.Committed())
	}

	x.Reset()
	r.Reset()
	x.Wake()
	r.Wake()
	if x.State() != core.StateDown || !errors.Is(x.LastWakeError(), store.ErrClosed) {
		t.Errorf("sender after wake: state %v, error %v; want down with ErrClosed", x.State(), x.LastWakeError())
	}
	if r.State() != core.StateDown || !errors.Is(r.LastWakeError(), store.ErrClosed) {
		t.Errorf("receiver after wake: state %v, error %v; want down with ErrClosed", r.State(), r.LastWakeError())
	}
}

// TestWakeIsTheOnlyWayUpOverAUsedStore pins the restart rule where it
// lives: an endpoint built over a store a prior life used is born down and
// hands out or delivers nothing until Wake has fetched, leaped and saved;
// over an empty store, or as a baseline, it is born up at its initial value.
func TestWakeIsTheOnlyWayUpOverAUsedStore(t *testing.T) {
	const (
		k      = 10
		w      = 64
		stored = 1000
	)
	// wake starts a wake-up, lets a simulated saver run, and waits for the
	// outcome.
	wake := func(t *testing.T, wakeNotify func(func(error)), run func()) {
		t.Helper()
		settled := make(chan error, 1)
		wakeNotify(func(err error) { settled <- err })
		run()
		if err := <-settled; err != nil {
			t.Fatalf("Wake: %v", err)
		}
	}
	for _, kind := range saverKinds {
		t.Run(kind.name+"/sender/empty", func(t *testing.T) {
			watchdog.Arm(t, 5*time.Second)
			var m store.Mem
			saver, _, stop := kind.make(&m)
			defer stop()
			x := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: saver})
			if v, ok := m.Peek(); x.State() != core.StateUp || !ok || v != 1 {
				t.Fatalf("state = %v, store = %d (%v), want up with 1 saved", x.State(), v, ok)
			}
			if seq, err := x.Next(); seq != 1 || err != nil {
				t.Errorf("first Next = %d, %v, want 1", seq, err)
			}
		})
		t.Run(kind.name+"/sender/used", func(t *testing.T) {
			watchdog.Arm(t, 5*time.Second)
			var m store.Mem
			m.Save(stored) //nolint:errcheck // Mem.Save cannot fail
			saver, run, stop := kind.make(&m)
			defer stop()
			x := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: saver})
			if x.State() != core.StateDown {
				t.Fatalf("state = %v, want down", x.State())
			}
			if seq, err := x.Next(); !errors.Is(err, core.ErrDown) {
				t.Fatalf("Next before Wake = %d, %v, want ErrDown", seq, err)
			}
			wake(t, x.WakeNotify, run)
			if seq, err := x.Next(); seq != stored+2*k || err != nil {
				t.Errorf("first Next = %d, %v, want %d", seq, err, stored+2*k)
			}
			if v, _ := m.Peek(); v != stored+2*k {
				t.Errorf("store = %d, want the leaped %d", v, stored+2*k)
			}
			if st := x.Stats(); st.Resets != 0 || st.Sent != 1 {
				t.Errorf("stats = %+v, want no reset counted and one number sent", st)
			}
		})
		t.Run(kind.name+"/sender/used+baseline", func(t *testing.T) {
			var m store.Mem
			m.Save(stored) //nolint:errcheck
			saver, _, stop := kind.make(&m)
			defer stop()
			x := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: saver, Baseline: true})
			if seq, err := x.Next(); seq != 1 || err != nil {
				t.Errorf("baseline first Next = %d, %v, want 1 (§3)", seq, err)
			}
		})
		t.Run(kind.name+"/receiver/empty", func(t *testing.T) {
			watchdog.Arm(t, 5*time.Second)
			var m store.Mem
			saver, _, stop := kind.make(&m)
			defer stop()
			r := mustReceiver(t, core.ReceiverConfig{K: k, W: w, Store: &m, Saver: saver})
			if v, ok := m.Peek(); r.State() != core.StateUp || r.Edge() != 0 || !ok || v != 0 {
				t.Fatalf("state = %v, edge = %d, store = %d (%v), want up at 0 with 0 saved", r.State(), r.Edge(), v, ok)
			}
			if got := r.Admit(1); got != core.VerdictNew {
				t.Errorf("Admit(1) = %v, want new", got)
			}
		})
		t.Run(kind.name+"/receiver/used", func(t *testing.T) {
			watchdog.Arm(t, 5*time.Second)
			var m store.Mem
			m.Save(stored) //nolint:errcheck
			saver, run, stop := kind.make(&m)
			defer stop()
			var drained int
			r := mustReceiver(t, core.ReceiverConfig{K: k, W: w, Store: &m, Saver: saver,
				Drain: func(uint64, core.Verdict) { drained++ }})
			if r.State() != core.StateDown {
				t.Fatalf("state = %v, want down", r.State())
			}
			// Below, inside and above the stored edge, from four admitters
			// at once: whichever path an Admit takes, it finds the machine off.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := uint64(stored - 2*w); s <= stored+4*k; s++ {
						if got := r.Admit(s); got != core.VerdictDown {
							t.Errorf("Admit(%d) before Wake = %v, want down", s, got)
							return
						}
					}
				}()
			}
			wg.Wait()
			if st := r.Stats(); st.Delivered != 0 || drained != 0 {
				t.Fatalf("before Wake: delivered %d, drained %d, want nothing", st.Delivered, drained)
			}
			wake(t, r.WakeNotify, run)
			const edge = stored + 2*k
			if r.State() != core.StateUp || r.Edge() != edge || r.Occupancy() != w {
				t.Fatalf("after Wake: state %v, edge %d, occupancy %d; want up at %d, all %d seen",
					r.State(), r.Edge(), r.Occupancy(), edge, w)
			}
			for s := uint64(edge - w + 1); s <= edge; s++ {
				if got := r.Admit(s); got.Delivered() {
					t.Fatalf("Admit(%d) inside the post-wake window = %v, want a discard", s, got)
				}
			}
			if got := r.Admit(edge + 1); got != core.VerdictNew {
				t.Errorf("Admit(%d) = %v, want new", edge+1, got)
			}
			if st := r.Stats(); st.Delivered != 1 || st.Resets != 0 {
				t.Errorf("stats = %+v, want one delivery and no reset counted", st)
			}
		})
		t.Run(kind.name+"/receiver/used+baseline", func(t *testing.T) {
			var m store.Mem
			m.Save(stored) //nolint:errcheck
			saver, _, stop := kind.make(&m)
			defer stop()
			r := mustReceiver(t, core.ReceiverConfig{K: k, W: w, Store: &m, Saver: saver, Baseline: true})
			if got := r.Admit(1); r.State() != core.StateUp || got != core.VerdictNew {
				t.Errorf("baseline: state %v, Admit(1) = %v, want up, new (§3)", r.State(), got)
			}
		})
	}
}
