package core_test

import (
	"errors"
	"fmt"
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
	{"AsyncSaver", func(st store.Store) (core.BackgroundSaver, func(), func()) {
		a := store.NewAsyncSaver(st)
		return a, func() {}, a.Close
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
