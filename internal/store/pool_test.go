package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"antireplay/internal/storefault"
	"antireplay/internal/watchdog"
)

// poolSizes are the pools the single-handle tests run over: one worker is
// what the public single-SA constructors build, several what a gateway does.
var poolSizes = []int{1, 4}

func TestPoolSaverCompletes(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	for _, workers := range poolSizes {
		p := NewSaverPool(workers)
		var m Mem
		s := p.Saver(&m)
		done := make(chan error, 1)
		s.StartSave(77, func(err error) { done <- err })
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%d workers: save err: %v", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d workers: save did not complete", workers)
		}
		if v, ok := m.Peek(); !ok || v != 77 {
			t.Errorf("%d workers: Peek = (%d, %v), want (77, true)", workers, v, ok)
		}
		p.Close()
	}
}

// TestPoolSaverMonotonic: a handle's saves coalesce to the maximum and the
// durable value only grows, even with all values queued before any worker
// runs — with a completion on every save, and with none (Close then being
// the only thing that waits for them).
func TestPoolSaverMonotonic(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const n = 500
	for _, workers := range poolSizes {
		for _, nilDone := range []bool{false, true} {
			p := NewSaverPool(workers)
			var m Mem
			s := p.Saver(&m)
			var wg sync.WaitGroup
			for i := uint64(1); i <= n; i++ {
				if nilDone {
					s.StartSave(i, nil)
					continue
				}
				wg.Add(1)
				s.StartSave(i, func(error) { wg.Done() })
			}
			wg.Wait()
			p.Close()
			if v, ok := m.Peek(); !ok || v != n {
				t.Errorf("%d workers, nil done %v: Peek = (%d, %v), want (%d, true)", workers, nilDone, v, ok, n)
			}
			if saves := m.Saves(); saves == 0 || saves > n {
				t.Errorf("%d workers, nil done %v: Saves = %d, want in (0, %d] (coalesced)", workers, nilDone, saves, n)
			}
		}
	}
}

func TestPoolManyHandles(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(8)
	const handles, saves = 100, 20
	mems := make([]*Mem, handles)
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for h := 0; h < handles; h++ {
		mems[h] = &Mem{}
		s := p.Saver(mems[h])
		wg.Add(1)
		go func() {
			defer wg.Done()
			var inner sync.WaitGroup
			inner.Add(saves)
			for i := uint64(1); i <= saves; i++ {
				s.StartSave(i, func(err error) {
					if err != nil {
						failed.Add(1)
					}
					inner.Done()
				})
			}
			inner.Wait()
		}()
	}
	wg.Wait()
	p.Close()
	if failed.Load() != 0 {
		t.Fatalf("%d saves failed", failed.Load())
	}
	for h, m := range mems {
		if v, ok := m.Peek(); !ok || v != saves {
			t.Errorf("handle %d: Peek = (%d, %v), want (%d, true)", h, v, ok, saves)
		}
	}
}

func TestPoolCloseDrains(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(1)
	slow := &slowStore{}
	var calls atomic.Uint64
	for h := 0; h < 10; h++ {
		p.Saver(slow).StartSave(uint64(h+1), func(error) { calls.Add(1) })
	}
	p.Close() // must wait for every queued handle to drain
	if calls.Load() != 10 {
		t.Errorf("done callbacks after Close = %d, want 10", calls.Load())
	}
}

func TestPoolStartSaveAfterClose(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(1)
	p.Close()
	var m Mem
	var got error
	p.Saver(&m).StartSave(5, func(err error) { got = err })
	if !errors.Is(got, ErrClosed) {
		t.Errorf("StartSave after Close: done err = %v, want ErrClosed", got)
	}
	if _, ok := m.Peek(); ok {
		t.Error("save after Close must not persist")
	}
}

func TestPoolDoneCalledExactlyOnce(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const n = 200
	for _, workers := range poolSizes {
		p := NewSaverPool(workers)
		var m Mem
		s := p.Saver(&m)
		var calls atomic.Uint64
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				defer wg.Done()
				s.StartSave(uint64(i), func(error) { calls.Add(1) })
			}(i)
		}
		wg.Wait()
		p.Close()
		if calls.Load() != n {
			t.Errorf("%d workers: done calls = %d, want exactly %d", workers, calls.Load(), n)
		}
	}
}

// TestPoolJournalGroupCommit drives many handles over one journal: the
// end-to-end gateway persistence path. Every acknowledged save must be
// durable, the fsync count must stay well below the save count, and at
// least 10x below what the same burst costs on one journal per handle
// (nothing to share a commit with: an fsync per handle per round).
func TestPoolJournalGroupCommit(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const handles, saves = 250, 10
	// burst queues every handle's saves back to back on a fresh pool, the
	// shape a busy gateway produces, and returns once all are acknowledged.
	burst := func(store func(h int) Store) {
		p := NewSaverPool(8)
		defer p.Close()
		var wg sync.WaitGroup
		for h := 0; h < handles; h++ {
			s := p.Saver(store(h))
			wg.Add(saves)
			for i := uint64(1); i <= saves; i++ {
				s.StartSave(i, func(err error) {
					if err != nil {
						t.Errorf("save: %v", err)
					}
					wg.Done()
				})
			}
		}
		wg.Wait()
	}

	j := journalAt(t, LanesWithFS(slowSyncFS{storefault.OS(), 100 * time.Microsecond}))
	burst(func(h int) Store { return j.Cell(fmt.Sprintf("sa/%d", h)) })
	appends := j.stats().Appends
	syncs := j.stats().Syncs
	j.Close()
	if appends == 0 || syncs == 0 {
		t.Fatalf("appends=%d syncs=%d, want both > 0", appends, syncs)
	}
	if syncs*2 > appends {
		t.Errorf("syncs = %d for %d appends: group commit should share fsyncs", syncs, appends)
	}

	// The baseline counts only the burst: opening a fresh journal syncs its
	// header, and that is not a save.
	dir := t.TempDir()
	own := make([]*Journal, handles)
	var opening, ownSyncs uint64
	for h := range own {
		var err error
		if own[h], err = openLane(filepath.Join(dir, fmt.Sprintf("sa-%d.log", h))); err != nil {
			t.Fatalf("openLane: %v", err)
		}
		defer own[h].Close()
		opening += own[h].stats().Syncs
	}
	burst(func(h int) Store { return own[h].Cell("sa") })
	for _, o := range own {
		ownSyncs += o.stats().Syncs
	}
	if ownSyncs -= opening; syncs*10 > ownSyncs {
		t.Errorf("shared journal fsyncs = %d, one journal per handle = %d: want >= 10x reduction", syncs, ownSyncs)
	}
}

// gateStore is a lane-less store whose Save blocks until the gate opens. A
// worker that takes it into a round stays inside that round, so a test can
// queue work behind it and know which round the work lands in.
type gateStore struct {
	Mem
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateStore) Save(v uint64) error {
	g.entered <- struct{}{}
	<-g.gate
	return g.Mem.Save(v)
}

// slowStore is a Mem whose every save takes a couple of milliseconds.
type slowStore struct{ Mem }

func (s *slowStore) Save(v uint64) error {
	time.Sleep(2 * time.Millisecond)
	return s.Mem.Save(v)
}

// sickStore is a Mem whose saves fail with err, persisting nothing, while
// err is set; it counts every Save attempt. A test changes err only while
// no save is in flight.
type sickStore struct {
	Mem
	err      error
	attempts int
}

func (s *sickStore) Save(v uint64) error {
	s.attempts++
	if s.err != nil {
		return s.err
	}
	return s.Mem.Save(v)
}

// holdWorkers parks all n workers of p inside a round and returns the
// function that lets them go. Lane-less handles round-robin over the shards,
// so n of them reach n workers as long as every lane-less handle p ever
// issued came from here.
func holdWorkers(t *testing.T, p *SaverPool, n int) (release func()) {
	t.Helper()
	g := &gateStore{entered: make(chan struct{}, n), gate: make(chan struct{})}
	for i := 0; i < n; i++ {
		p.Saver(g).StartSave(1, nil)
	}
	for i := 0; i < n; i++ {
		<-g.entered
	}
	return func() { close(g.gate) }
}

// TestPoolGroupCommitOneLane: handles of one journal that queue up while
// the worker is busy are staged together and commit with exactly one fsync,
// not one each — the laned case TestPoolJournalGroupCommit never covered.
func TestPoolGroupCommitOneLane(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j := journalAt(t)
	defer j.Close()
	p := NewSaverPool(1)
	defer p.Close()
	release := holdWorkers(t, p, 1)

	const handles = 32
	var wg sync.WaitGroup
	wg.Add(handles)
	for h := 0; h < handles; h++ {
		p.Saver(j.Cell(fmt.Sprintf("sa/%d", h))).StartSave(uint64(h+1), func(err error) {
			if err != nil {
				t.Errorf("save: %v", err)
			}
			wg.Done()
		})
	}
	before := j.stats().Syncs
	release()
	wg.Wait()
	if got := j.stats().Syncs - before; got != 1 {
		t.Errorf("%d handles queued behind one round cost %d fsyncs, want exactly 1", handles, got)
	}
	for h := 0; h < handles; h++ {
		if v, ok, _ := j.Cell(fmt.Sprintf("sa/%d", h)).Fetch(); !ok || v != uint64(h+1) {
			t.Errorf("sa/%d = (%d, %v), want (%d, true)", h, v, ok, h+1)
		}
	}
}

// TestPoolQueueDepthCountsRound: a handle the worker has taken into its
// round still has unpersisted work, so the gauge counts it.
func TestPoolQueueDepthCountsRound(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(1)
	defer p.Close()
	release := holdWorkers(t, p, 1)
	if d := p.QueueDepth(); d != 1 {
		t.Errorf("QueueDepth with one handle mid-round = %d, want 1", d)
	}
	savers := make([]*PoolSaver, 3)
	for i := range savers {
		savers[i] = p.Saver(&Mem{})
		savers[i].StartSave(1, nil)
	}
	if d := p.QueueDepth(); d != 4 {
		t.Errorf("QueueDepth with one mid-round and three queued = %d, want 4", d)
	}
	release()
	for _, s := range savers {
		s.Flush()
	}
	if d := p.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth after drain = %d, want 0", d)
	}
}

// TestPoolRoundPoisonedLane: one round spans a lane whose fsync fails and
// healthy lanes. Every handle of the sick lane — staged before the failure
// or, in a later round, refused at staging — fails with the lane's original
// error, unwrapped; the healthy lanes' handles complete.
func TestPoolRoundPoisonedLane(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	in := storefault.NewInjector(nil)
	l, err := OpenLanes(t.TempDir(), LanesCount(4), LanesWithFS(in))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	p := NewSaverPool(1) // one worker: all four lanes share its rounds
	defer p.Close()

	const sick, perLane = 2, 3
	keys := make([][]string, l.LaneCount())
	for i, filled := 0, 0; filled < len(keys); i++ {
		key := fmt.Sprintf("tx/%08x", i)
		if lane := l.laneOf(key); len(keys[lane]) < perLane {
			if keys[lane] = append(keys[lane], key); len(keys[lane]) == perLane {
				filled++
			}
		}
	}
	savers := make(map[string]*PoolSaver)
	for _, ks := range keys {
		for _, k := range ks {
			savers[k] = p.Saver(l.Cell(k))
		}
	}
	in.Arm(storefault.Fault{Op: storefault.OpSync, Path: laneFileName(sick), Count: 1, Err: syscall.EIO})

	for round := uint64(1); round <= 2; round++ {
		release := holdWorkers(t, p, 1)
		errs := make(map[string]chan error)
		for k, s := range savers {
			c := make(chan error, 1)
			errs[k] = c
			s.StartSave(round, func(err error) { c <- err })
		}
		release()
		for lane, ks := range keys {
			for _, k := range ks {
				err := <-errs[k]
				if lane != sick {
					if err != nil {
						t.Errorf("round %d: healthy lane %d key %s: %v", round, lane, k, err)
					}
					continue
				}
				if !errors.Is(err, syscall.EIO) || err != l.LaneJournals()[sick].poisoned() {
					t.Errorf("round %d: sick lane key %s: err = %v, want the lane's original %v",
						round, k, err, l.LaneJournals()[sick].poisoned())
				}
			}
		}
	}
	if in.Fired() != 1 {
		t.Errorf("injector fired %d times, want 1", in.Fired())
	}
	for lane, ks := range keys {
		for _, k := range ks {
			if v, _, _ := l.Cell(k).Fetch(); lane != sick && v != 2 {
				t.Errorf("healthy lane %d key %s = %d, want 2", lane, k, v)
			}
		}
	}
}

// TestPoolFlushWaitsForRequeue: a handle that gains work while its round
// runs (here from its own completion callback) goes back on the queue, and
// Flush returns only once that later work has drained too.
func TestPoolFlushWaitsForRequeue(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(1)
	defer p.Close()
	release := holdWorkers(t, p, 1)
	var m Mem
	s := p.Saver(&m)
	var second atomic.Bool
	s.StartSave(1, func(error) {
		s.StartSave(2, func(error) { second.Store(true) })
	})
	release()
	s.Flush()
	if !second.Load() {
		t.Error("Flush returned before the save queued mid-round completed")
	}
	if v, _ := m.Peek(); v != 2 {
		t.Errorf("Peek = %d after Flush, want 2", v)
	}
}

// TestPoolCloseDuringRound: Close lands while every worker is inside a
// round with work queued behind it. Nothing is lost: each callback runs
// exactly once, work queued before Close (including on a handle already in
// the round) is persisted, and a save started on an idle handle after Close
// completes with ErrClosed.
func TestPoolCloseDuringRound(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	const workers, handles, saves = 2, 16, 4
	p := NewSaverPool(workers)
	release := holdWorkers(t, p, workers)

	mems := make([]Mem, handles)
	savers := make([]*PoolSaver, handles)
	var calls [handles * (saves + 1)]atomic.Uint32
	var failed atomic.Uint32
	start := func(h, i int) {
		savers[h].StartSave(uint64(i+1), func(err error) {
			if err != nil {
				failed.Add(1)
			}
			calls[h*(saves+1)+i].Add(1)
		})
	}
	for h := range savers {
		savers[h] = p.Saver(&mems[h])
		for i := 0; i < saves; i++ {
			start(h, i)
		}
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close has marked the shards once an idle handle is refused.
	for {
		var refused atomic.Bool
		p.Saver(&Mem{}).StartSave(1, func(err error) { refused.Store(errors.Is(err, ErrClosed)) })
		if refused.Load() {
			break
		}
		runtime.Gosched()
	}
	for h := range savers {
		start(h, saves) // the handle is queued, so this joins its work
	}
	release()
	<-closed
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("callback %d of handle %d ran %d times, want 1", i%(saves+1), i/(saves+1), n)
		}
	}
	if failed.Load() != 0 {
		t.Errorf("%d saves queued on busy handles failed, want 0", failed.Load())
	}
	for h := range mems {
		if v, _ := mems[h].Peek(); v != saves+1 {
			t.Errorf("handle %d: Peek = %d, want %d", h, v, saves+1)
		}
	}
}

// TestPoolSurfacesSaveError: the pool does not retry. A failing store is
// tried once and every callback of its batch gets the store's own error,
// once; a healthy handle in the same round completes, and the failing
// handle's next save goes through once the store heals — the retry is the
// endpoint's next trigger, not the pool's.
func TestPoolSurfacesSaveError(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(1)
	defer p.Close()
	errSick := errors.New("sick store")
	sick, fine := &sickStore{err: errSick}, &Mem{}

	const batch = 3
	var got [batch]error
	var calls [batch]atomic.Int32
	release := holdWorkers(t, p, 1)
	s := p.Saver(sick)
	for i := range batch {
		s.StartSave(uint64(i+1), func(err error) { got[i] = err; calls[i].Add(1) })
	}
	fineErr := make(chan error, 1)
	p.Saver(fine).StartSave(9, func(err error) { fineErr <- err })
	release()
	if err := <-fineErr; err != nil {
		t.Errorf("healthy store in the same round: %v", err)
	}
	s.Flush()
	for i := range batch {
		if n := calls[i].Load(); n != 1 || got[i] != errSick {
			t.Errorf("callback %d ran %d times with %v, want once with the store's own error", i, n, got[i])
		}
	}
	if n := sick.attempts; n != 1 {
		t.Errorf("Save attempted %d times, want 1: the pool retried", n)
	}

	sick.err = nil
	done := make(chan error, 1)
	s.StartSave(4, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("save after the store healed: %v", err)
	}
	if v, ok := sick.Peek(); !ok || v != 4 {
		t.Errorf("healed store holds (%d, %v), want (4, true)", v, ok)
	}
}
