package netsim

import (
	"testing"
	"time"

	"antireplay/internal/store"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", got)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	e.After(5*time.Millisecond, func() {
		fired = append(fired, e.Now())
		e.After(5*time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 10*time.Millisecond {
		t.Errorf("fired = %v, want [5ms 10ms]", fired)
	}
}

func TestEnginePastSchedulesClampToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { ran = true }) // in the past
	})
	e.Run()
	if !ran {
		t.Error("past-scheduled event did not run")
	}
	if e.Now() != 10*time.Millisecond {
		t.Errorf("Now = %v, want 10ms", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", e.Pending())
	}
	e.RunFor(2 * time.Second)
	if count != 7 {
		t.Errorf("count after RunFor = %d, want 7", count)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(42)
		var out []uint64
		link := NewLink[uint64](e, LinkConfig{
			Delay:        time.Millisecond,
			Jitter:       time.Millisecond,
			LossProb:     0.2,
			DupProb:      0.1,
			ReorderProb:  0.3,
			ReorderDelay: 5 * time.Millisecond,
		}, func(v uint64) { out = append(out, v) })
		for i := uint64(1); i <= 200; i++ {
			i := i
			e.At(time.Duration(i)*100*time.Microsecond, func() { link.Send(i) })
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLinkPerfectDeliveryInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	link := NewLink[int](e, LinkConfig{Delay: time.Millisecond}, func(v int) {
		got = append(got, v)
	})
	for i := 1; i <= 100; i++ {
		i := i
		e.At(time.Duration(i)*time.Millisecond, func() { link.Send(i) })
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("out of order at %d: %v", i, v)
		}
	}
	st := link.Stats()
	if st.Sent != 100 || st.Delivered != 100 || st.Lost != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkLossRate(t *testing.T) {
	e := NewEngine(7)
	delivered := 0
	link := NewLink[int](e, LinkConfig{LossProb: 0.5}, func(int) { delivered++ })
	const n = 10000
	for i := 0; i < n; i++ {
		link.Send(i)
	}
	e.Run()
	if delivered < 4500 || delivered > 5500 {
		t.Errorf("delivered %d of %d with 50%% loss, want ~5000", delivered, n)
	}
	st := link.Stats()
	if st.Lost+st.Delivered != n {
		t.Errorf("lost %d + delivered %d != %d", st.Lost, st.Delivered, n)
	}
}

func TestLinkDuplication(t *testing.T) {
	e := NewEngine(7)
	count := map[int]int{}
	link := NewLink[int](e, LinkConfig{DupProb: 1}, func(v int) { count[v]++ })
	link.Send(1)
	link.Send(2)
	e.Run()
	if count[1] != 2 || count[2] != 2 {
		t.Errorf("counts = %v, want every message twice", count)
	}
}

func TestLinkReorder(t *testing.T) {
	e := NewEngine(3)
	var got []int
	link := NewLink[int](e, LinkConfig{
		Delay:        time.Millisecond,
		ReorderProb:  0.5,
		ReorderDelay: 20 * time.Millisecond,
	}, func(v int) { got = append(got, v) })
	for i := 1; i <= 500; i++ {
		i := i
		e.At(time.Duration(i)*time.Millisecond, func() { link.Send(i) })
	}
	e.Run()
	if len(got) != 500 {
		t.Fatalf("delivered %d, want 500", len(got))
	}
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("expected some reordering, saw none")
	}
	if link.Stats().Reordered == 0 {
		t.Error("Reordered counter is zero")
	}
}

func TestLinkTapSeesLostMessages(t *testing.T) {
	e := NewEngine(5)
	var tapped []int
	link := NewLink[int](e, LinkConfig{LossProb: 1}, func(int) {
		t.Error("nothing should be delivered at 100% loss")
	})
	link.Tap(func(v int) { tapped = append(tapped, v) })
	link.Send(1)
	link.Send(2)
	e.Run()
	if len(tapped) != 2 {
		t.Errorf("tap saw %d messages, want 2 (wiretap precedes loss)", len(tapped))
	}
}

func TestLinkInjectBypassesTapAndLoss(t *testing.T) {
	e := NewEngine(5)
	delivered := 0
	link := NewLink[int](e, LinkConfig{LossProb: 1}, func(int) { delivered++ })
	tapped := 0
	link.Tap(func(int) { tapped++ })
	link.Inject(99)
	e.Run()
	if delivered != 1 {
		t.Errorf("injected message delivered %d times, want 1 (bypasses loss)", delivered)
	}
	if tapped != 0 {
		t.Errorf("tap saw %d injections, want 0", tapped)
	}
	if link.Stats().Injected != 1 {
		t.Errorf("Injected = %d, want 1", link.Stats().Injected)
	}
}

func TestLinkConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  LinkConfig
		ok   bool
	}{
		{"zero", LinkConfig{}, true},
		{"full", LinkConfig{Delay: time.Millisecond, Jitter: time.Millisecond,
			LossProb: 0.1, DupProb: 0.1, ReorderProb: 0.1, ReorderDelay: time.Millisecond}, true},
		{"loss too high", LinkConfig{LossProb: 1.5}, false},
		{"negative dup", LinkConfig{DupProb: -0.1}, false},
		{"negative delay", LinkConfig{Delay: -time.Millisecond}, false},
		{"reorder without delay", LinkConfig{ReorderProb: 0.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("Validate = nil, want error")
			}
		})
	}
}

func TestNewLinkPanicsOnBadConfig(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("NewLink with bad config should panic")
		}
	}()
	NewLink[int](e, LinkConfig{LossProb: 2}, func(int) {})
}

func TestNewLinkPanicsOnNilDeliver(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("NewLink with nil deliver should panic")
		}
	}()
	NewLink[int](e, LinkConfig{}, nil)
}

func TestSimSaverCommitsAfterDelay(t *testing.T) {
	e := NewEngine(1)
	var st store.Mem
	sv := NewSimSaver(e, &st, 100*time.Microsecond)
	var doneAt time.Duration
	sv.StartSave(42, func(err error) {
		if err != nil {
			t.Errorf("save err: %v", err)
		}
		doneAt = e.Now()
	})
	if !sv.InFlight() {
		t.Error("InFlight = false during save")
	}
	if _, ok := st.Peek(); ok {
		t.Error("value committed before delay elapsed")
	}
	e.Run()
	if doneAt != 100*time.Microsecond {
		t.Errorf("done at %v, want 100µs", doneAt)
	}
	v, ok := st.Peek()
	if !ok || v != 42 {
		t.Errorf("Peek = (%d, %v), want (42, true)", v, ok)
	}
	if sv.InFlight() {
		t.Error("InFlight = true after commit")
	}
	if sv.Started() != 1 || sv.Committed() != 1 {
		t.Errorf("Started/Committed = %d/%d, want 1/1", sv.Started(), sv.Committed())
	}
}

func TestSimSaverCancelIsTornSave(t *testing.T) {
	e := NewEngine(1)
	var st store.Mem
	if err := st.Save(10); err != nil {
		t.Fatal(err)
	}
	sv := NewSimSaver(e, &st, time.Millisecond)
	called := false
	sv.StartSave(20, func(error) { called = true })
	// Reset strikes before the save commits.
	e.After(500*time.Microsecond, func() { sv.Cancel() })
	e.Run()
	if called {
		t.Error("done callback ran despite cancellation")
	}
	v, ok := st.Peek()
	if !ok || v != 10 {
		t.Errorf("Peek = (%d, %v), want old value (10, true)", v, ok)
	}
	if sv.Committed() != 0 {
		t.Errorf("Committed = %d, want 0", sv.Committed())
	}
}

func TestSimSaverNilDone(t *testing.T) {
	e := NewEngine(1)
	var st store.Mem
	sv := NewSimSaver(e, &st, time.Millisecond)
	sv.StartSave(5, nil)
	e.Run()
	if v, ok := st.Peek(); !ok || v != 5 {
		t.Errorf("Peek = (%d, %v), want (5, true)", v, ok)
	}
}

func TestSimSaverDelayAccessor(t *testing.T) {
	sv := NewSimSaver(NewEngine(1), &store.Mem{}, 7*time.Millisecond)
	if sv.Delay() != 7*time.Millisecond {
		t.Errorf("Delay = %v, want 7ms", sv.Delay())
	}
}

func TestLinkStatsDeterministicAcrossRuns(t *testing.T) {
	// Same seed => identical LinkStats, bit for bit; a different seed must
	// disturb at least one impairment counter.
	run := func(seed int64) LinkStats {
		e := NewEngine(seed)
		link := NewLink[[]byte](e, LinkConfig{
			Delay:        time.Millisecond,
			Jitter:       time.Millisecond,
			LossProb:     0.2,
			DupProb:      0.15,
			ReorderProb:  0.25,
			ReorderDelay: 5 * time.Millisecond,
		}, func([]byte) {})
		for i := 0; i < 500; i++ {
			n := 16 + (i*37)%400
			i := i
			e.At(time.Duration(i)*50*time.Microsecond, func() { link.Send(make([]byte, n)) })
		}
		e.Run()
		return link.Stats()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed, stats differ:\n%+v\n%+v", a, b)
	}
	if c := run(43); c == a {
		t.Fatalf("different seed, identical stats: %+v", c)
	}
	if a.Lost == 0 || a.Duplicated == 0 || a.Reordered == 0 {
		t.Fatalf("impairments not exercised: %+v", a)
	}
}
