package core_test

import (
	"errors"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

func TestReceiverVerdicts(t *testing.T) {
	var m store.Mem
	r := mustReceiver(t, core.ReceiverConfig{K: 10, Store: &m, W: 64})

	if v := r.Admit(100); v != core.VerdictNew {
		t.Fatalf("Admit(100) = %v, want new", v)
	}
	if v := r.Admit(90); v != core.VerdictInWindow {
		t.Errorf("Admit(90) = %v, want in-window", v)
	}
	if v := r.Admit(90); v != core.VerdictDuplicate {
		t.Errorf("Admit(90) again = %v, want duplicate", v)
	}
	if v := r.Admit(36); v != core.VerdictStale {
		t.Errorf("Admit(36) = %v, want stale", v)
	}
	st := r.Stats()
	if st.Delivered != 2 || st.Discarded != 2 {
		t.Errorf("stats = %+v, want 2 delivered 2 discarded", st)
	}
	if r.Edge() != 100 {
		t.Errorf("Edge = %d, want 100", r.Edge())
	}
}

func TestReceiverSaveTrigger(t *testing.T) {
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: 10, Store: &m, Saver: sv})

	for s := uint64(1); s <= 9; s++ {
		r.Admit(s)
	}
	if sv.Pending() != 0 {
		t.Fatal("no save expected before the edge advances K past lst")
	}
	r.Admit(10) // edge 10 >= K(10)+lst(0)
	if sv.Pending() != 1 {
		t.Fatal("save expected at edge 10")
	}
	sv.CommitAll()
	if v, _ := m.Peek(); v != 10 {
		t.Errorf("durable = %d, want 10", v)
	}
	if r.LastStored() != 10 {
		t.Errorf("LastStored = %d, want 10", r.LastStored())
	}
	r.Admit(19)
	if sv.Pending() != 0 {
		t.Fatal("edge 19 < lst 10 + K 10: no save")
	}
	r.Admit(20)
	if sv.Pending() != 1 {
		t.Fatal("save expected at edge 20")
	}
	sv.CommitAll()
}

func TestReceiverResetAfterSaveCompleted(t *testing.T) {
	// Fig. 2, second case: reset after SAVE(r) finished. The leap of 2Kq
	// puts the edge above every previously received sequence number, so no
	// replay is accepted; at most 2Kq fresh messages are discarded.
	const k = 10
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: k, Store: &m, Saver: sv, W: 64})

	for s := uint64(1); s <= k; s++ {
		r.Admit(s)
	}
	sv.CommitAll() // durable k
	for s := uint64(k + 1); s <= k+3; s++ {
		r.Admit(s) // received but not durable
	}
	lastReceived := uint64(k + 3)

	r.Reset()
	r.Wake()
	sv.CommitAll()
	if got := r.State(); got != core.StateUp {
		t.Fatalf("State = %v (wake err %v)", got, r.LastWakeError())
	}

	newEdge := r.Edge()
	if want := uint64(k + 2*k); newEdge != want {
		t.Errorf("post-wake edge = %d, want %d", newEdge, want)
	}
	if newEdge < lastReceived {
		t.Errorf("SAFETY: edge %d below last received %d — replays possible", newEdge, lastReceived)
	}

	// Every previously received sequence number must be rejected.
	for s := uint64(1); s <= lastReceived; s++ {
		if v := r.Admit(s); v.Delivered() {
			t.Fatalf("SAFETY: replay of %d delivered after wake", s)
		}
	}

	// Fresh messages in (lastReceived, newEdge] are sacrificed — bounded.
	discarded := 0
	for s := lastReceived + 1; s <= newEdge; s++ {
		if v := r.Admit(s); !v.Delivered() {
			discarded++
		}
	}
	if discarded > 2*k {
		t.Errorf("fresh discards after wake = %d, bound 2Kq = %d", discarded, 2*k)
	}

	// And everything above the new edge flows normally.
	if v := r.Admit(newEdge + 1); v != core.VerdictNew {
		t.Errorf("Admit(edge+1) = %v, want new", v)
	}
}

func TestReceiverResetDuringSave(t *testing.T) {
	// Fig. 2, first case: reset before SAVE(r) commits. FETCH returns the
	// previous durable value; the gap can reach 2Kq and the leap still
	// covers it exactly.
	const k = 10
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: k, Store: &m, Saver: sv, W: 64})

	for s := uint64(1); s <= k; s++ {
		r.Admit(s) // SAVE(10) pending
	}
	sv.CommitAll() // durable 10
	for s := uint64(k + 1); s <= 2*k; s++ {
		r.Admit(s) // SAVE(20) pending
	}
	for s := uint64(2*k + 1); s <= 2*k+5; s++ {
		r.Admit(s)
	}
	lastReceived := uint64(2*k + 5)

	r.Reset() // tears SAVE(20)
	if sv.Pending() != 0 {
		t.Fatal("reset must cancel in-flight saves")
	}
	r.Wake()
	sv.CommitAll()

	newEdge := r.Edge()
	if want := uint64(k + 2*k); newEdge != want {
		t.Errorf("post-wake edge = %d, want %d (stale fetch %d + leap %d)", newEdge, want, k, 2*k)
	}
	if newEdge < lastReceived {
		t.Errorf("SAFETY: edge %d below last received %d", newEdge, lastReceived)
	}
	for s := uint64(1); s <= lastReceived; s++ {
		if v := r.Admit(s); v.Delivered() {
			t.Fatalf("SAFETY: replay of %d delivered", s)
		}
	}
}

func TestReceiverBuffersDuringWake(t *testing.T) {
	const k = 10
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	type drained struct {
		seq uint64
		v   core.Verdict
	}
	var drain []drained
	r := mustReceiver(t, core.ReceiverConfig{
		K: k, Store: &m, Saver: sv, W: 64,
		Drain: func(seq uint64, v core.Verdict) { drain = append(drain, drained{seq, v}) },
	})

	for s := uint64(1); s <= k; s++ {
		r.Admit(s)
	}
	sv.CommitAll() // durable 10

	r.Reset()
	r.Wake() // post-wake SAVE(30) pending
	// Messages arriving before the SAVE completes are buffered (§4):
	// a replay of 5 and fresh messages 31 and 32.
	if v := r.Admit(5); v != core.VerdictBuffered {
		t.Fatalf("Admit(5) while waking = %v, want buffered", v)
	}
	if v := r.Admit(31); v != core.VerdictBuffered {
		t.Fatalf("Admit(31) while waking = %v, want buffered", v)
	}
	if v := r.Admit(32); v != core.VerdictBuffered {
		t.Fatalf("Admit(32) while waking = %v, want buffered", v)
	}

	sv.CommitAll() // wake completes, buffer drains in arrival order

	if len(drain) != 3 {
		t.Fatalf("drained %d messages, want 3", len(drain))
	}
	if drain[0].seq != 5 || drain[0].v.Delivered() {
		t.Errorf("drain[0] = %+v, want replay 5 discarded", drain[0])
	}
	if drain[1].seq != 31 || drain[1].v != core.VerdictNew {
		t.Errorf("drain[1] = %+v, want fresh 31 delivered", drain[1])
	}
	if drain[2].seq != 32 || drain[2].v != core.VerdictNew {
		t.Errorf("drain[2] = %+v, want fresh 32 delivered", drain[2])
	}
}

func TestReceiverWakeBufferOverflow(t *testing.T) {
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: 5, Store: &m, Saver: sv, WakeBuffer: 2})

	r.Reset()
	r.Wake()
	if v := r.Admit(1); v != core.VerdictBuffered {
		t.Fatalf("Admit = %v, want buffered", v)
	}
	if v := r.Admit(2); v != core.VerdictBuffered {
		t.Fatalf("Admit = %v, want buffered", v)
	}
	if v := r.Admit(3); v != core.VerdictOverflow {
		t.Fatalf("Admit = %v, want overflow", v)
	}
	if got := r.Stats().Overflowed; got != 1 {
		t.Errorf("Overflowed = %d, want 1", got)
	}
	sv.CommitAll()
}

func TestReceiverDownDropsMessages(t *testing.T) {
	var m store.Mem
	r := mustReceiver(t, core.ReceiverConfig{K: 5, Store: &m})
	r.Reset()
	if v := r.Admit(1); v != core.VerdictDown {
		t.Errorf("Admit while down = %v, want down", v)
	}
}

func TestReceiverBaselineWakeAcceptsReplays(t *testing.T) {
	// §3: after a baseline receiver reset, an adversary can replay the
	// entire history and everything is accepted.
	r := mustReceiver(t, core.ReceiverConfig{Baseline: true, W: 64})
	for s := uint64(1); s <= 100; s++ {
		r.Admit(s)
	}
	r.Reset()
	r.Wake()
	accepted := 0
	for s := uint64(1); s <= 100; s++ {
		if r.Admit(s).Delivered() {
			accepted++
		}
	}
	if accepted != 100 {
		t.Errorf("baseline accepted %d replays, want 100 (the vulnerability)", accepted)
	}
}

func TestReceiverDoubleResetBeforePostWakeSave(t *testing.T) {
	// §4 second consideration, receiver side: a second reset strikes while
	// the post-wake SAVE is still in flight. The receiver never served
	// traffic in between (messages were buffered, not decided), so no
	// sequence number was consumed, and the second wake leaps from the old
	// durable value again.
	const k = 10
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: k, Store: &m, Saver: sv, W: 64})

	for s := uint64(1); s <= k; s++ {
		r.Admit(s)
	}
	sv.CommitAll() // durable 10
	lastReceived := uint64(k)

	r.Reset()
	r.Wake() // SAVE(30) in flight
	r.Admit(7)
	r.Reset() // buffer and save torn
	r.Wake()
	sv.CommitAll()

	if got := r.State(); got != core.StateUp {
		t.Fatalf("State = %v (wake err %v)", got, r.LastWakeError())
	}
	if edge := r.Edge(); edge < lastReceived {
		t.Errorf("SAFETY: edge %d below last received %d", edge, lastReceived)
	}
	for s := uint64(1); s <= lastReceived; s++ {
		if r.Admit(s).Delivered() {
			t.Fatalf("SAFETY: replay of %d delivered after double reset", s)
		}
	}
}

func TestReceiverWakeFetchFailure(t *testing.T) {
	f := &brokenMem{}
	r := mustReceiver(t, core.ReceiverConfig{K: 5, Store: f})
	r.Reset()
	f.failFetches = 1
	r.Wake()
	if got := r.State(); got != core.StateDown {
		t.Fatalf("State = %v, want down", got)
	}
	if err := r.LastWakeError(); !errors.Is(err, errFetch) {
		t.Errorf("LastWakeError = %v, want wrapped errFetch", err)
	}
	r.Wake()
	if got := r.State(); got != core.StateUp {
		t.Errorf("State = %v, want up after retry", got)
	}
}

func TestReceiverWakePostSaveFailure(t *testing.T) {
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: 5, Store: &m, Saver: sv})
	r.Reset()
	r.Wake()
	if !sv.Fail(errors.New("disk detached")) {
		t.Fatal("no pending post-wake save")
	}
	if got := r.State(); got != core.StateDown {
		t.Fatalf("State = %v, want down", got)
	}
	if r.LastWakeError() == nil {
		t.Error("LastWakeError = nil, want error")
	}
}

func TestReceiverBackgroundSaveFailureRetries(t *testing.T) {
	const k = 10
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: k, Store: &m, Saver: sv})

	for s := uint64(1); s <= k; s++ {
		r.Admit(s)
	}
	if !sv.Fail(errors.New("transient")) {
		t.Fatal("no pending save")
	}
	if got := r.Stats().SavesFailed; got != 1 {
		t.Fatalf("SavesFailed = %d, want 1", got)
	}
	// lst rolled back to durable (0): the next edge advance re-triggers.
	r.Admit(k + 1)
	if sv.Pending() != 1 {
		t.Fatal("expected retry save after rollback")
	}
	sv.CommitAll()
	if v, _ := m.Peek(); v != k+1 {
		t.Errorf("durable = %d, want %d", v, k+1)
	}
}

func TestReceiverNoSavedState(t *testing.T) {
	r := mustReceiver(t, core.ReceiverConfig{K: 5, Store: ghostStore{}})
	r.Reset()
	r.Wake()
	if err := r.LastWakeError(); !errors.Is(err, core.ErrNoSavedState) {
		t.Errorf("LastWakeError = %v, want ErrNoSavedState", err)
	}
}

func TestReceiverWakeIdempotentWhenUp(t *testing.T) {
	var m store.Mem
	r := mustReceiver(t, core.ReceiverConfig{K: 5, Store: &m})
	r.Admit(3)
	r.Wake()
	if r.Edge() != 3 || r.State() != core.StateUp {
		t.Error("Wake on an up receiver must be a no-op")
	}
}

// TestReceiverTraceEvents follows a life, a reset and a wake through what
// the receiver keeps of them: its counters, state, edge and the store's
// FETCHes.
func TestReceiverTraceEvents(t *testing.T) {
	const k = 2
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r := mustReceiver(t, core.ReceiverConfig{K: k, Store: &m, Saver: sv})

	r.Admit(1)
	r.Admit(1)
	r.Admit(2)
	sv.CommitAll()
	r.Reset()
	if got := r.Admit(9); got != core.VerdictDown {
		t.Errorf("Admit while down = %v, want down", got)
	}
	r.Wake()
	if got := r.Admit(10); got != core.VerdictBuffered || r.State() != core.StateWaking {
		t.Errorf("Admit during the post-wake save = %v in state %v, want buffered, waking", got, r.State())
	}
	sv.CommitAll()

	// Delivered 1, 2 and the buffered 10; discarded the duplicate 1; saved
	// edge 2, the leaped edge 6 and, from the drain, edge 10.
	want := core.ReceiverStats{Delivered: 3, Discarded: 1, SavesStarted: 3, SavesOK: 3, Resets: 1}
	if st := r.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if r.State() != core.StateUp || r.Edge() != 10 {
		t.Errorf("state = %v, edge = %d, want up at 10", r.State(), r.Edge())
	}
	if got := m.Fetches(); got != 2 {
		t.Errorf("fetches = %d, want 2 (the probe at birth, the wake)", got)
	}
}

func TestReceiverDefaultWindow(t *testing.T) {
	var m store.Mem
	r := mustReceiver(t, core.ReceiverConfig{K: 5, Store: &m})
	if got := r.W(); got != 64 {
		t.Errorf("default W = %d, want 64", got)
	}
}
