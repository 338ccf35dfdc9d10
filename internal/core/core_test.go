package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

func mustSender(t *testing.T, cfg core.SenderConfig) *core.Sender {
	t.Helper()
	s, err := core.NewSender(cfg)
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	return s
}

func mustReceiver(t *testing.T, cfg core.ReceiverConfig) *core.Receiver {
	t.Helper()
	r, err := core.NewReceiver(cfg)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	return r
}

func sendN(t *testing.T, s *core.Sender, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		seq, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		last = seq
	}
	return last
}

func TestSenderConfigValidation(t *testing.T) {
	var m store.Mem
	tests := []struct {
		name string
		cfg  core.SenderConfig
		ok   bool
	}{
		{"valid", core.SenderConfig{K: 25, Store: &m}, true},
		{"baseline needs nothing", core.SenderConfig{Baseline: true}, true},
		{"missing K", core.SenderConfig{Store: &m}, false},
		{"missing store", core.SenderConfig{K: 25}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := core.NewSender(tt.cfg)
			if tt.ok && err != nil {
				t.Errorf("NewSender = %v, want nil", err)
			}
			if !tt.ok && !errors.Is(err, core.ErrConfig) {
				t.Errorf("NewSender = %v, want ErrConfig", err)
			}
		})
	}
}

func TestReceiverConfigValidation(t *testing.T) {
	var m store.Mem
	tests := []struct {
		name string
		cfg  core.ReceiverConfig
		ok   bool
	}{
		{"valid", core.ReceiverConfig{K: 25, Store: &m}, true},
		{"baseline", core.ReceiverConfig{Baseline: true}, true},
		{"missing K", core.ReceiverConfig{Store: &m}, false},
		{"missing store", core.ReceiverConfig{K: 25}, false},
		{"negative W", core.ReceiverConfig{K: 25, Store: &m, W: -1}, false},
		{"negative buffer", core.ReceiverConfig{K: 25, Store: &m, WakeBuffer: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := core.NewReceiver(tt.cfg)
			if tt.ok && err != nil {
				t.Errorf("NewReceiver = %v, want nil", err)
			}
			if !tt.ok && !errors.Is(err, core.ErrConfig) {
				t.Errorf("NewReceiver = %v, want ErrConfig", err)
			}
		})
	}
}

func TestSenderSequencesAndSaveTrigger(t *testing.T) {
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: 5, Store: &m, Saver: sv})

	for want := uint64(1); want <= 5; want++ {
		seq, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if seq != want {
			t.Fatalf("Next = %d, want %d", seq, want)
		}
	}
	// After sending 5 messages s=6 >= K+lst=6: exactly one save started.
	if n := sv.Pending(); n != 1 {
		t.Fatalf("pending saves = %d, want 1", n)
	}
	if got := s.LastStored(); got != 6 {
		t.Errorf("LastStored = %d, want 6 (next-to-send at save time)", got)
	}
	sv.CommitAll()
	if v, _ := m.Peek(); v != 6 {
		t.Errorf("durable = %d, want 6", v)
	}

	sendN(t, s, 5) // s reaches 11 -> second save
	if n := sv.Pending(); n != 1 {
		t.Fatalf("pending saves = %d, want 1", n)
	}
	sv.CommitAll()
	if v, _ := m.Peek(); v != 11 {
		t.Errorf("durable = %d, want 11", v)
	}
	st := s.Stats()
	if st.Sent != 10 || st.SavesStarted != 2 || st.SavesOK != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSenderResetAfterSaveCompleted(t *testing.T) {
	// Fig. 1, second case: reset occurs after SAVE(s) finished; the gap is
	// at most Kp, and the leap of 2Kp lands strictly above every used seq.
	const k = 5
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

	sendN(t, s, k) // triggers SAVE(6)
	sv.CommitAll()
	lastUsed := sendN(t, s, 3) // seqs 6,7,8 used; durable stays 6

	s.Reset()
	s.Wake()
	sv.CommitAll() // post-wake SAVE

	if got := s.State(); got != core.StateUp {
		t.Fatalf("State = %v, want up (wake err: %v)", got, s.LastWakeError())
	}
	resume := s.Seq()
	if want := uint64(6 + 2*k); resume != want {
		t.Errorf("resume seq = %d, want %d (fetched 6 + leap 10)", resume, want)
	}
	if resume <= lastUsed {
		t.Errorf("resume seq %d not fresh (last used %d)", resume, lastUsed)
	}
	if lost := resume - lastUsed - 1; lost > 2*k {
		t.Errorf("lost %d sequence numbers, bound is %d", lost, 2*k)
	}
}

func TestSenderResetDuringSave(t *testing.T) {
	// Fig. 1, first case: reset strikes before SAVE(s) commits; FETCH
	// returns the previous durable value (gap up to 2Kp) and the 2Kp leap
	// still lands strictly above every used sequence number.
	const k = 5
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

	sendN(t, s, k) // SAVE(6) pending
	sv.CommitAll()
	sendN(t, s, k) // SAVE(11) pending, NOT committed
	lastUsed := sendN(t, s, k-1)
	if lastUsed != 2*k+k-1 {
		t.Fatalf("last used = %d, want %d", lastUsed, 2*k+k-1)
	}

	s.Reset() // cancels the in-flight SAVE(11)
	if sv.Pending() != 0 {
		t.Fatal("reset must cancel in-flight saves")
	}
	s.Wake()
	sv.CommitAll()

	resume := s.Seq()
	if want := uint64(6 + 2*k); resume != want {
		t.Errorf("resume seq = %d, want %d (fetched stale 6 + leap 10)", resume, want)
	}
	if resume <= lastUsed {
		t.Errorf("SAFETY: resume seq %d reuses a sequence number (last used %d)", resume, lastUsed)
	}
}

func TestSenderWorstCaseLossBound(t *testing.T) {
	// §5 condition (i): the number of lost sequence numbers is bounded by
	// 2Kp, with the worst case when the reset strikes immediately after a
	// save starts.
	for _, k := range []uint64{1, 5, 25, 100} {
		var m store.Mem
		sv := &core.HeldSaver{Store: &m}
		s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

		sendN(t, s, int(k)) // SAVE(k+1) pending
		sv.CommitAll()
		lastUsed := uint64(k) // seqs 1..k used

		s.Reset()
		s.Wake()
		sv.CommitAll()

		resume := s.Seq()
		lost := resume - lastUsed - 1
		if lost > 2*k {
			t.Errorf("K=%d: lost %d > bound %d", k, lost, 2*k)
		}
		if lost != 2*k {
			t.Errorf("K=%d: lost %d, want exactly 2K=%d in this worst case", k, lost, 2*k)
		}
	}
}

func TestSenderDownAndWaking(t *testing.T) {
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: 5, Store: &m, Saver: sv})

	s.Reset()
	if _, err := s.Next(); !errors.Is(err, core.ErrDown) {
		t.Errorf("Next while down = %v, want ErrDown", err)
	}
	s.Wake() // post-wake save pending: still cannot send
	if got := s.State(); got != core.StateWaking {
		t.Fatalf("State = %v, want waking", got)
	}
	if _, err := s.Next(); !errors.Is(err, core.ErrWaking) {
		t.Errorf("Next while waking = %v, want ErrWaking", err)
	}
	sv.CommitAll()
	if _, err := s.Next(); err != nil {
		t.Errorf("Next after wake = %v, want nil", err)
	}
}

func TestSenderBaselineWakeRestartsAtOne(t *testing.T) {
	s := mustSender(t, core.SenderConfig{Baseline: true})
	sendN(t, s, 100)
	s.Reset()
	s.Wake()
	seq, err := s.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if seq != 1 {
		t.Errorf("baseline resume seq = %d, want 1 (the §3 vulnerability)", seq)
	}
}

func TestSenderWakeIdempotentWhenUp(t *testing.T) {
	var m store.Mem
	s := mustSender(t, core.SenderConfig{K: 5, Store: &m})
	before := s.Seq()
	s.Wake() // not down: no-op
	if s.Seq() != before || s.State() != core.StateUp {
		t.Error("Wake on an up endpoint must be a no-op")
	}
}

func TestSenderDoubleResetBeforePostWakeSave(t *testing.T) {
	// §4 "second consideration": a second reset before the post-wake SAVE
	// completes. Because the sender waits for that SAVE, no sequence number
	// is handed out in between, and the second wake leaps again from the
	// old durable value — fresh but farther.
	const k = 5
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

	lastUsed := sendN(t, s, int(k))
	sv.CommitAll() // durable 6

	s.Reset()
	s.Wake() // SAVE(16) pending
	s.Reset()
	if sv.Pending() != 0 {
		t.Fatal("second reset must cancel the post-wake save")
	}
	s.Wake()
	sv.CommitAll()

	resume := s.Seq()
	if want := uint64(6 + 2*k); resume != want {
		t.Errorf("resume = %d, want %d (fetch durable 6, leap again)", resume, want)
	}
	if resume <= lastUsed {
		t.Errorf("SAFETY: resume %d reuses a sequence number (last used %d)", resume, lastUsed)
	}
}

func TestSenderDoubleResetAfterPostWakeSaveCommitted(t *testing.T) {
	const k = 5
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

	sendN(t, s, int(k))
	sv.CommitAll() // durable 6

	s.Reset()
	s.Wake()
	sv.CommitAll() // durable 16, resumed at 16
	lastUsed := sendN(t, s, 2)

	s.Reset()
	s.Wake()
	sv.CommitAll()
	resume := s.Seq()
	if want := uint64(16 + 2*k); resume != want {
		t.Errorf("resume = %d, want %d", resume, want)
	}
	if resume <= lastUsed {
		t.Errorf("SAFETY: resume %d <= last used %d", resume, lastUsed)
	}
}

func TestSenderWakeFetchFailureStaysDown(t *testing.T) {
	var m store.Mem
	f := store.NewFaulty(&m)
	s := mustSender(t, core.SenderConfig{K: 5, Store: f})
	s.Reset()
	f.CorruptFetches(1)
	s.Wake()
	if got := s.State(); got != core.StateDown {
		t.Fatalf("State = %v, want down after fetch failure", got)
	}
	if err := s.LastWakeError(); !errors.Is(err, store.ErrInjected) {
		t.Errorf("LastWakeError = %v, want wrapped ErrInjected", err)
	}
	// A later wake with healthy storage succeeds.
	s.Wake()
	if got := s.State(); got != core.StateUp {
		t.Errorf("State = %v, want up after retry", got)
	}
}

func TestSenderWakePostSaveFailureStaysDown(t *testing.T) {
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: 5, Store: &m, Saver: sv})
	s.Reset()
	s.Wake()
	if !sv.Fail(errors.New("disk on fire")) {
		t.Fatal("no pending post-wake save")
	}
	if got := s.State(); got != core.StateDown {
		t.Fatalf("State = %v, want down after post-wake save failure", got)
	}
	if s.LastWakeError() == nil {
		t.Error("LastWakeError = nil, want error")
	}
}

func TestSenderBackgroundSaveFailureRetries(t *testing.T) {
	const k = 5
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	s := mustSender(t, core.SenderConfig{K: k, Store: &m, Saver: sv})

	sendN(t, s, int(k)) // SAVE(6) pending
	if !sv.Fail(errors.New("transient")) {
		t.Fatal("no pending save")
	}
	if got := s.Stats().SavesFailed; got != 1 {
		t.Fatalf("SavesFailed = %d, want 1", got)
	}
	// lst rolled back to the durable value, so the very next send
	// re-triggers a save.
	sendN(t, s, 1)
	if n := sv.Pending(); n != 1 {
		t.Fatalf("pending saves after retry = %d, want 1", n)
	}
	sv.CommitAll()
	if v, _ := m.Peek(); v != 7 {
		t.Errorf("durable = %d, want 7", v)
	}
}

// ghostStore accepts saves but never returns a value: it models persistent
// memory that was wiped between the reset and the wake-up.
type ghostStore struct{}

func (ghostStore) Save(uint64) error            { return nil }
func (ghostStore) Fetch() (uint64, bool, error) { return 0, false, nil }

func TestSenderNoSavedStateError(t *testing.T) {
	s := mustSender(t, core.SenderConfig{K: 5, Store: ghostStore{}})
	s.Reset()
	s.Wake()
	if err := s.LastWakeError(); !errors.Is(err, core.ErrNoSavedState) {
		t.Errorf("LastWakeError = %v, want ErrNoSavedState", err)
	}
	if got := s.State(); got != core.StateDown {
		t.Errorf("State = %v, want down", got)
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    core.State
		want string
	}{
		{core.StateUp, "up"},
		{core.StateDown, "down"},
		{core.StateWaking, "waking"},
		{core.State(0), "state(0)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("State(%d) = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestLeap(t *testing.T) {
	tests := []struct {
		k      uint64
		factor float64
		want   uint64
	}{
		{25, 2, 50},
		{25, 1, 25},
		{25, 1.5, 38},
		{25, 0.5, 13},
		{25, -1, 0},
		{0, 2, 0},
		{1, 2, 2},
	}
	for _, tt := range tests {
		if got := core.Leap(tt.k, tt.factor); got != tt.want {
			t.Errorf("Leap(%d, %g) = %d, want %d", tt.k, tt.factor, got, tt.want)
		}
	}
}

// TestSenderTraceEvents follows a life, a reset and a wake through what the
// sender keeps of them: its counters, its state and the store's FETCHes.
func TestSenderTraceEvents(t *testing.T) {
	const k = 2
	var m store.Mem
	s := mustSender(t, core.SenderConfig{K: k, Store: &m})
	sendN(t, s, 4)
	if st := s.Stats(); st.Sent != 4 || st.SavesStarted != 2 || st.Resets != 0 {
		t.Errorf("stats after 4 sends = %+v, want 4 sent, saves of 3 and 5, no reset", st)
	}
	if got := m.Fetches(); got != 1 {
		t.Errorf("fetches before the reset = %d, want 1 (the probe at birth)", got)
	}
	s.Reset()
	if st := s.Stats(); st.Resets != 1 || s.State() != core.StateDown {
		t.Errorf("after Reset: resets = %d, state = %v, want 1, down", st.Resets, s.State())
	}
	s.Wake()
	if st := s.Stats(); st.Resets != 1 || st.SavesStarted != 3 || s.State() != core.StateUp {
		t.Errorf("after Wake: stats = %+v, state = %v, want 1 reset, the post-wake save, up", st, s.State())
	}
	if got := m.Fetches(); got != 2 {
		t.Errorf("fetches after the wake = %d, want 2", got)
	}
	if got, want := s.Seq(), uint64(5+2*k); got != want {
		t.Errorf("woke at %d, want %d (fetched 5 + leap)", got, want)
	}
}

func TestVerdictStringsAndDelivered(t *testing.T) {
	tests := []struct {
		v         core.Verdict
		want      string
		delivered bool
	}{
		{core.VerdictNew, "new", true},
		{core.VerdictInWindow, "in-window", true},
		{core.VerdictDuplicate, "duplicate", false},
		{core.VerdictStale, "stale", false},
		{core.VerdictBuffered, "buffered", false},
		{core.VerdictOverflow, "overflow", false},
		{core.VerdictDown, "down", false},
		{core.VerdictHorizon, "horizon", false},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Verdict.String = %q, want %q", got, tt.want)
		}
		if got := tt.v.Delivered(); got != tt.delivered {
			t.Errorf("Verdict(%v).Delivered = %v, want %v", tt.v, got, tt.delivered)
		}
	}
	if !strings.HasPrefix(core.Verdict(99).String(), "verdict(") {
		t.Error("invalid verdict should format as verdict(n)")
	}
}

// lateSaver is a HeldSaver a reset does not cancel: a save the reset tears
// still completes, after it, as a pool's does.
type lateSaver struct{ held *core.HeldSaver }

func (l lateSaver) StartSave(v uint64, done func(error)) { l.held.StartSave(v, done) }

// TestSaveCountersBalanceAtQuiesce: an endpoint counts every save it hands
// its saver exactly once, as OK or failed — the wake's own SAVE, a save a
// reset tears (dropped by a Canceler, or completing late) and a failed one
// alike — so SavesStarted − SavesOK − SavesFailed is the saves in flight,
// zero once the saver has nothing left.
func TestSaveCountersBalanceAtQuiesce(t *testing.T) {
	for _, side := range []string{"sender", "receiver"} {
		for _, cancels := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/cancels=%v", side, cancels), func(t *testing.T) {
				var m store.Mem
				held := &core.HeldSaver{Store: &m}
				var saver core.BackgroundSaver = held
				if !cancels {
					saver = lateSaver{held}
				}
				var (
					traffic     func(n int)
					counts      func() (started, ok, failed uint64)
					reset, wake func()
				)
				if side == "sender" {
					s := mustSender(t, core.SenderConfig{K: 4, Store: &m, Saver: saver})
					traffic = func(n int) { sendN(t, s, n) }
					counts = func() (uint64, uint64, uint64) {
						st := s.Stats()
						return st.SavesStarted, st.SavesOK, st.SavesFailed
					}
					reset, wake = s.Reset, s.Wake
				} else {
					r := mustReceiver(t, core.ReceiverConfig{K: 4, Store: &m, Saver: saver})
					next := uint64(1)
					traffic = func(n int) {
						for ; n > 0; n-- {
							r.Admit(next)
							next++
						}
					}
					counts = func() (uint64, uint64, uint64) {
						st := r.Stats()
						return st.SavesStarted, st.SavesOK, st.SavesFailed
					}
					reset, wake = r.Reset, r.Wake
				}
				quiesce := func(when string) {
					t.Helper()
					held.CommitAll()
					if started, ok, failed := counts(); started == 0 || started != ok+failed {
						t.Errorf("%s: %d saves started, %d ok, %d failed: want every one settled", when, started, ok, failed)
					}
				}

				traffic(10)
				quiesce("first life")
				traffic(10) // its last save is held, then torn
				reset()
				wake()
				quiesce("torn save, then a wake")
				traffic(10)
				reset()
				wake()
				held.Fail(errors.New("disk")) // the wake's SAVE fails: still down
				wake()
				quiesce("failed wake, then a wake")
			})
		}
	}
}
