package store

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"antireplay/internal/watchdog"
)

func TestMemEmptyFetch(t *testing.T) {
	var m Mem
	v, ok, err := m.Fetch()
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if ok || v != 0 {
		t.Errorf("Fetch on empty = (%d, %v), want (0, false)", v, ok)
	}
}

func TestMemSaveFetch(t *testing.T) {
	var m Mem
	if err := m.Save(42); err != nil {
		t.Fatalf("Save: %v", err)
	}
	v, ok, err := m.Fetch()
	if err != nil || !ok || v != 42 {
		t.Errorf("Fetch = (%d, %v, %v), want (42, true, nil)", v, ok, err)
	}
	if err := m.Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	v, _, _ = m.Fetch()
	if v != 7 {
		t.Errorf("Fetch after overwrite = %d, want 7", v)
	}
	if m.Saves() != 2 {
		t.Errorf("Saves = %d, want 2", m.Saves())
	}
	if m.Fetches() != 2 {
		t.Errorf("Fetches = %d, want 2", m.Fetches())
	}
}

func TestMemConcurrent(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	var m Mem
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = m.Save(uint64(g*1000 + i))
				_, _, _ = m.Fetch()
			}
		}(g)
	}
	wg.Wait()
	if m.Saves() != 4000 {
		t.Errorf("Saves = %d, want 4000", m.Saves())
	}
}

func TestMemSaveFetchRoundtripProperty(t *testing.T) {
	f := func(v uint64) bool {
		var m Mem
		if err := m.Save(v); err != nil {
			return false
		}
		got, ok, err := m.Fetch()
		return err == nil && ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFaultyFailSaves(t *testing.T) {
	var m Mem
	f := NewFaulty(&m)
	f.FailSaves(2)
	if err := f.Save(1); !errors.Is(err, ErrInjected) {
		t.Errorf("Save 1 = %v, want ErrInjected", err)
	}
	if err := f.Save(2); !errors.Is(err, ErrInjected) {
		t.Errorf("Save 2 = %v, want ErrInjected", err)
	}
	if err := f.Save(3); err != nil {
		t.Errorf("Save 3 = %v, want nil", err)
	}
	v, ok := m.Peek()
	if !ok || v != 3 {
		t.Errorf("Peek = (%d, %v), want (3, true)", v, ok)
	}
}

func TestFaultyLoseSaves(t *testing.T) {
	var m Mem
	f := NewFaulty(&m)
	if err := f.Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	f.LoseSaves(1)
	if err := f.Save(2); err != nil {
		t.Errorf("lost Save should report success, got %v", err)
	}
	v, _, _ := f.Fetch()
	if v != 1 {
		t.Errorf("Fetch = %d, want stale 1 (save was lost)", v)
	}
	if f.LostSaves() != 1 {
		t.Errorf("LostSaves = %d, want 1", f.LostSaves())
	}
}

func TestFaultyCorruptFetches(t *testing.T) {
	var m Mem
	_ = m.Save(9)
	f := NewFaulty(&m)
	f.CorruptFetches(1)
	if _, _, err := f.Fetch(); !errors.Is(err, ErrInjected) {
		t.Errorf("Fetch = %v, want ErrInjected", err)
	}
	v, ok, err := f.Fetch()
	if err != nil || !ok || v != 9 {
		t.Errorf("second Fetch = (%d, %v, %v), want (9, true, nil)", v, ok, err)
	}
}
