package store

import (
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
