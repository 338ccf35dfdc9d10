package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/watchdog"
)

func TestPoolSaverCompletes(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(2)
	var m Mem
	s := p.Saver(&m)
	done := make(chan error, 1)
	s.StartSave(77, func(err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("save err: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("save did not complete")
	}
	if v, ok := m.Peek(); !ok || v != 77 {
		t.Errorf("Peek = (%d, %v), want (77, true)", v, ok)
	}
	p.Close()
}

// TestPoolSaverMonotonic mirrors AsyncSaver's invariant: a handle's saves
// coalesce to the maximum and the durable value only grows, even with all
// values queued before any worker runs.
func TestPoolSaverMonotonic(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	p := NewSaverPool(4)
	var m Mem
	s := p.Saver(&m)
	var wg sync.WaitGroup
	const n = 500
	wg.Add(n)
	for i := uint64(1); i <= n; i++ {
		s.StartSave(i, func(error) { wg.Done() })
	}
	wg.Wait()
	p.Close()
	if v, ok := m.Peek(); !ok || v != n {
		t.Errorf("Peek = (%d, %v), want (%d, true)", v, ok, n)
	}
	if saves := m.Saves(); saves == 0 || saves > n {
		t.Errorf("Saves = %d, want in (0, %d] (coalesced)", saves, n)
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
	slow := NewLatent(&Mem{}, 2*time.Millisecond)
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
	p := NewSaverPool(4)
	var m Mem
	s := p.Saver(&m)
	var calls atomic.Uint64
	const n = 200
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
		t.Errorf("done calls = %d, want exactly %d", calls.Load(), n)
	}
}

// TestPoolJournalGroupCommit drives many handles over one journal: the
// end-to-end gateway persistence path. Every acknowledged save must be
// durable and the fsync count must stay well below the save count.
func TestPoolJournalGroupCommit(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j := journalAt(t, JournalBatchDelay(100*time.Microsecond))
	p := NewSaverPool(8)
	const handles, saves = 50, 10
	var wg sync.WaitGroup
	for h := 0; h < handles; h++ {
		s := p.Saver(j.Cell(fmt.Sprintf("sa/%d", h)))
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
	p.Close()
	appends := j.Appends()
	syncs := j.Syncs()
	j.Close()
	if appends == 0 || syncs == 0 {
		t.Fatalf("appends=%d syncs=%d, want both > 0", appends, syncs)
	}
	if syncs*2 > appends {
		t.Errorf("syncs = %d for %d appends: group commit should share fsyncs", syncs, appends)
	}
}
