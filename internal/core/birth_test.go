package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

// openCells returns the tx and rx cells of a fresh one-lane journal with
// fsync on.
func openCells(t *testing.T) (l *store.Lanes, tx, rx *store.Cell) {
	t.Helper()
	l, err := store.OpenLanes(t.TempDir(), store.LanesCount(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, l.Cell("tx"), l.Cell("rx")
}

// TestBirthStagedUntilFirstUse: over a journal cell a first life stages its
// initial value and returns without an fsync; committed stays below the
// sender's initial value. The first Next pays one commit for both births on
// the lane, the first Admit none, and then both births are cleared.
func TestBirthStagedUntilFirstUse(t *testing.T) {
	watchdog.Arm(t, 5*time.Second)
	const k = 10
	l, tx, rx := openCells(t)
	syncs := l.Syncs()
	x, err := NewSender(SenderConfig{K: k, Store: tx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{K: k, W: 64, Store: rx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs() - syncs; got != 0 {
		t.Errorf("two installs cost %d fsyncs, want 0", got)
	}
	if x.State() != StateUp || x.birth == 0 || x.Committed() != 0 {
		t.Errorf("sender: state %v, birth pending %v, committed %d; want up, pending, 0", x.State(), x.birth != 0, x.Committed())
	}
	if r.State() != StateUp || r.birth == 0 {
		t.Errorf("receiver: state %v, birth pending %v; want up, pending", r.State(), r.birth != 0)
	}
	if seq, err := x.Next(); seq != 1 || err != nil {
		t.Fatalf("first Next = %d, %v; want 1", seq, err)
	}
	if got := r.Admit(1); got != VerdictNew {
		t.Fatalf("first Admit(1) = %v, want new", got)
	}
	if got := l.Syncs() - syncs; got != 1 {
		t.Errorf("two births cost %d fsyncs, want 1: one lane commit", got)
	}
	if x.birth != 0 || x.Committed() != 1 || r.birth != 0 {
		t.Errorf("after first use: sender birth pending %v committed %d, receiver birth pending %v",
			x.birth != 0, x.Committed(), r.birth != 0)
	}
}

// TestBirthResetThenWake: a Reset before first use leaves the birth pending
// on a down endpoint; the Wake that follows fetches the staged initial
// value, leaps from it, clears the birth, and its post-wake SAVE is durable.
func TestBirthResetThenWake(t *testing.T) {
	watchdog.Arm(t, 5*time.Second)
	const k = 10
	_, tx, rx := openCells(t)
	x, err := NewSender(SenderConfig{K: k, Store: tx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{K: k, W: 64, Store: rx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	x.Reset()
	r.Reset()
	if _, err := x.Next(); !errors.Is(err, ErrDown) {
		t.Fatalf("Next after Reset: %v, want ErrDown", err)
	}
	if got := r.Admit(1); got != VerdictDown {
		t.Fatalf("Admit after Reset = %v, want down", got)
	}
	x.Wake()
	r.Wake()
	if x.State() != StateUp || x.birth != 0 || x.Committed() != 1+2*k {
		t.Errorf("sender after wake: state %v (%v), birth pending %v, committed %d; want up, cleared, %d",
			x.State(), x.LastWakeError(), x.birth != 0, x.Committed(), 1+2*k)
	}
	if r.State() != StateUp || r.birth != 0 || r.Committed() != 2*k {
		t.Errorf("receiver after wake: state %v (%v), birth pending %v, committed %d; want up, cleared, %d",
			r.State(), r.LastWakeError(), r.birth != 0, r.Committed(), 2*k)
	}
	if seq, err := x.Next(); seq != 1+2*k || err != nil {
		t.Errorf("first Next after wake = %d, %v; want %d", seq, err, 1+2*k)
	}
	if got := r.Admit(2 * k); got != VerdictDuplicate {
		t.Errorf("Admit(2K) after wake = %v, want duplicate: the window is marked up to the leap", got)
	}
	if got := r.Admit(2*k + 1); got != VerdictNew {
		t.Errorf("Admit(2K+1) after wake = %v, want new", got)
	}
}

// heldBirth is a Stager whose WaitDurable blocks until release is closed,
// then returns err; returned is set just before any WaitDurable returns.
type heldBirth struct {
	store.Mem
	release  chan struct{}
	err      error
	returned atomic.Bool
}

func (h *heldBirth) Stage(v uint64) (uint64, error) { return 0, h.Save(v) }

func (h *heldBirth) WaitDurable(uint64) error {
	<-h.release
	h.returned.Store(true)
	return h.err
}

// TestBirthConcurrentFirstUse: eight callers make the first Next, and eight
// the first Admit, at once. Every one waits for the birth: nothing is handed
// out or decided before its WaitDurable returns, the numbers handed out are
// 1..8 once each, and each delivered number is delivered once.
func TestBirthConcurrentFirstUse(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const n = 8
	tx := &heldBirth{release: make(chan struct{})}
	rx := &heldBirth{release: make(chan struct{})}
	x, err := NewSender(SenderConfig{K: 100, Store: tx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{K: 100, W: 64, Store: rx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg        sync.WaitGroup
		early     atomic.Int32
		seqs      = make(chan uint64, n)
		delivered = make(chan uint64, n*n)
	)
	for g := 0; g < n; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			seq, err := x.Next()
			if !tx.returned.Load() {
				early.Add(1)
			}
			if err != nil {
				t.Errorf("Next: %v", err)
			}
			seqs <- seq
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s := uint64((g+i)%n + 1)
				v := r.Admit(s)
				if !rx.returned.Load() {
					early.Add(1)
				}
				if v.Delivered() {
					delivered <- s
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	close(tx.release)
	close(rx.release)
	wg.Wait()
	close(seqs)
	close(delivered)
	if early.Load() != 0 {
		t.Fatalf("%d calls returned before the birth's WaitDurable did", early.Load())
	}
	handed, got := make(map[uint64]int), make(map[uint64]int)
	for s := range seqs {
		handed[s]++
	}
	for s := range delivered {
		got[s]++
	}
	for s := uint64(1); s <= n; s++ {
		if handed[s] != 1 || got[s] != 1 {
			t.Errorf("sequence %d: handed out %d times, delivered %d times; want once each", s, handed[s], got[s])
		}
	}
	if len(handed) != n || len(got) != n {
		t.Errorf("handed out %v, delivered %v; want exactly 1..%d", handed, got, n)
	}
}

// TestBirthWaitFails: a birth the medium cannot make durable fails the first
// Next with the medium's error, wrapped, and discards the first Admit at the
// horizon; nothing is handed out or delivered, and the birth stays pending
// for the next caller, which succeeds once the medium does.
func TestBirthWaitFails(t *testing.T) {
	watchdog.Arm(t, 5*time.Second)
	errDisk := errors.New("disk on fire")
	tx := &heldBirth{release: make(chan struct{}), err: errDisk}
	rx := &heldBirth{release: make(chan struct{}), err: errDisk}
	close(tx.release)
	close(rx.release)
	x, err := NewSender(SenderConfig{K: 10, Store: tx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{K: 10, W: 64, Store: rx, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := x.Next(); !errors.Is(err, errDisk) || seq != 0 || x.Seq() != 1 {
		t.Errorf("first Next = %d, %v, next %d; want the disk's error and 1 still unused", seq, err, x.Seq())
	}
	if got := r.Admit(1); got != VerdictHorizon || r.Edge() != 0 || r.Stats().Delivered != 0 {
		t.Errorf("first Admit(1) = %v, edge %d; want horizon at 0", got, r.Edge())
	}
	if x.birth == 0 || r.birth == 0 {
		t.Fatal("a failed wait cleared the birth")
	}
	tx.err, rx.err = nil, nil
	if seq, err := x.Next(); seq != 1 || err != nil {
		t.Errorf("Next once the medium recovers = %d, %v; want 1", seq, err)
	}
	if got := r.Admit(1); got != VerdictNew {
		t.Errorf("Admit(1) once the medium recovers = %v, want new", got)
	}
}
