package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/store"
	"antireplay/internal/watchdog"
)

// completion says how the scripted saver completes one StartSave.
type completion int

const (
	inlineOK   completion = iota // before StartSave returns; also the default past the script's end
	inlineFail                   // before StartSave returns, with errFlaky
	held                         // when the test fires it: later, out of order, after a reset, or never
)

// scriptedSaver completes its i-th StartSave the way script[i] says and
// records what it was handed. Like every real saver it keeps the medium at
// the maximum of the values it persisted.
type scriptedSaver struct {
	st     *store.Mem
	script []completion
	calls  []uint64 // every value handed over, in order
	lives  []int    // the endpoint life (resets so far) each call arrived in
	life   int
	held   map[int]func(error)
	acked  uint64 // largest value whose save it has acknowledged
}

func (s *scriptedSaver) StartSave(v uint64, done func(error)) {
	i := len(s.calls)
	s.calls = append(s.calls, v)
	s.lives = append(s.lives, s.life)
	mode := inlineOK
	if i < len(s.script) {
		mode = s.script[i]
	}
	finish := func(err error) {
		if err == nil {
			if cur, _ := s.st.Peek(); v > cur {
				s.st.Save(v) // store.Mem.Save cannot fail
			}
			s.acked = max(s.acked, v)
		}
		done(err)
	}
	switch mode {
	case inlineOK:
		finish(nil)
	case inlineFail:
		finish(errFlaky)
	case held:
		s.held[i] = finish
	}
}

// machine is one endpoint seen as its pipeline plus the two things the
// pipeline cannot do alone.
type machine struct {
	p       *savePipeline
	saver   *scriptedSaver
	advance func() // use up K numbers in one step: triggers exactly one SAVE
	reset   func()
}

const pipelineK = 10

var machines = []struct {
	name  string
	build func(t *testing.T, st store.Store, saver *scriptedSaver) *machine
}{
	{"sender", func(t *testing.T, st store.Store, saver *scriptedSaver) *machine {
		x, err := NewSender(SenderConfig{K: pipelineK, Store: st, Saver: saver})
		if err != nil {
			t.Fatal(err)
		}
		return &machine{p: &x.savePipeline, saver: saver, advance: func() {
			for i := 0; i < pipelineK; i++ {
				x.Next()
			}
		}, reset: x.Reset}
	}},
	{"receiver", func(t *testing.T, st store.Store, saver *scriptedSaver) *machine {
		r, err := NewReceiver(ReceiverConfig{K: pipelineK, W: 64, Store: st, Saver: saver})
		if err != nil {
			t.Fatal(err)
		}
		return &machine{p: &r.savePipeline, saver: saver, advance: func() { r.Admit(r.Edge() + pipelineK) }, reset: r.Reset}
	}},
}

type step func(m *machine)

func advance(m *machine) { m.advance() }
func wake(m *machine)    { m.p.Wake() }
func reset(m *machine) {
	m.reset()
	m.saver.life++
}

// fire completes the i-th StartSave, which the script held.
func fire(i int, err error) step {
	return func(m *machine) { m.saver.held[i](err) }
}

// torn hands in a SAVE that was triggered in the life before the last reset
// and reaches startSave only now.
func torn(m *machine) {
	m.p.startSave(handoff{gen: m.p.saveGen - 1, v: 1 << 40})
}

// TestSavePipeline drives the one SAVE machine, through each endpoint that
// embeds it, against a saver whose completions arrive inline, late, out of
// order, after a reset or never. Values are offsets from the endpoint's
// initial value (sender 1, receiver 0), so one table serves both. After
// every step: the saver has seen non-decreasing values within a life,
// committed has not moved back nor past what the saver acknowledged, and
// the pipeline is idle — every call returned with nothing left waiting.
func TestSavePipeline(t *testing.T) {
	const k = pipelineK
	cases := []struct {
		name          string
		script        []completion
		steps         []step
		wantCalls     []uint64
		wantCommitted uint64
		wantState     State
	}{
		{"inline", nil,
			[]step{advance, advance, reset, wake, advance},
			[]uint64{k, 2 * k, 4 * k, 5 * k}, 5 * k, StateUp},
		{"failed save is retried", []completion{inlineFail},
			[]step{advance, advance},
			[]uint64{k, 2 * k}, 2 * k, StateUp},
		{"completions in order", []completion{held, held},
			[]step{advance, advance, fire(0, nil), fire(1, nil)},
			[]uint64{k, 2 * k}, 2 * k, StateUp},
		{"completions out of order", []completion{held, held},
			[]step{advance, advance, fire(1, nil), fire(0, nil)},
			[]uint64{k, 2 * k}, 2 * k, StateUp},
		{"late failure does not reopen a fresher save", []completion{held, held},
			[]step{advance, advance, fire(0, errFlaky), advance},
			[]uint64{k, 2 * k, 3 * k}, 3 * k, StateUp},
		{"completion never arrives", []completion{held, held, held},
			[]step{advance, advance, reset, wake, reset, wake},
			[]uint64{k, 2 * k, 2 * k, 2 * k}, 2 * k, StateUp},
		{"completion after reset", []completion{held},
			[]step{advance, reset, fire(0, nil), wake},
			[]uint64{k, 3 * k}, 3 * k, StateUp},
		{"torn trigger", nil,
			[]step{advance, reset, torn, wake, torn},
			[]uint64{k, 3 * k}, 3 * k, StateUp},
		{"failed wake stays down and can be retried", []completion{inlineOK, inlineFail},
			[]step{advance, reset, wake},
			[]uint64{k, 3 * k}, k, StateDown},
		{"wake retried", []completion{inlineOK, inlineFail},
			[]step{advance, reset, wake, wake},
			[]uint64{k, 3 * k, 3 * k}, 3 * k, StateUp},
	}
	for _, mc := range machines {
		for _, tc := range cases {
			t.Run(mc.name+"/"+tc.name, func(t *testing.T) {
				watchdog.Arm(t, 5*time.Second)
				var st store.Mem
				saver := &scriptedSaver{st: &st, script: tc.script, held: map[int]func(error){}}
				m := mc.build(t, &st, saver)
				p, initial := m.p, m.p.initial
				saver.acked = initial // the constructor's synchronous save

				committed := p.Committed()
				for i, s := range tc.steps {
					s(m)
					for j := 1; j < len(saver.calls); j++ {
						if saver.lives[j] == saver.lives[j-1] && saver.calls[j] < saver.calls[j-1] {
							t.Fatalf("step %d: saver was handed %d after %d in one life", i, saver.calls[j], saver.calls[j-1])
						}
					}
					if c := p.Committed(); c < committed || c > saver.acked {
						t.Fatalf("step %d: committed = %d, was %d, saver acknowledged up to %d", i, c, committed, saver.acked)
					}
					committed = p.Committed()
					if p.handing || p.afterHandOff != nil {
						t.Fatalf("step %d: pipeline not idle (handing=%v)", i, p.handing)
					}
				}
				wantCalls, wantCommitted := tc.wantCalls, tc.wantCommitted
				if mc.name == "sender" && tc.name == "failed save is retried" {
					// A sender advances a number at a time, so its retry comes
					// with the number after the failure, where the receiver's
					// comes with its next jump of K.
					wantCalls, wantCommitted = []uint64{k, k + 1}, k+1
				}
				want := slices.Clone(wantCalls)
				for i := range want {
					want[i] += initial
				}
				if !slices.Equal(saver.calls, want) {
					t.Errorf("saver was handed %v, want %v", saver.calls, want)
				}
				if got := p.savesStart.Load(); got != uint64(len(saver.calls)) {
					t.Errorf("SavesStarted = %d, saver saw %d", got, len(saver.calls))
				}
				if p.Committed() != initial+wantCommitted {
					t.Errorf("committed = %d, want %d", p.Committed(), initial+wantCommitted)
				}
				if p.State() != tc.wantState {
					t.Errorf("state = %v (wake error %v), want %v", p.State(), p.LastWakeError(), tc.wantState)
				}
			})
		}
	}
}

// TestWakeNotify: the completion handed to WakeNotify runs exactly once with
// the wake's outcome — nil when the endpoint is up (at once if it already
// is), the error that left it down, ErrDown when a reset tears the wake —
// and a second caller joins the wake in flight instead of starting another.
func TestWakeNotify(t *testing.T) {
	var outcomes []error
	notify := func(m *machine) {
		m.p.WakeNotify(func(err error) { outcomes = append(outcomes, err) })
	}
	cases := []struct {
		name   string
		script []completion
		steps  []step
		want   []error // outcomes after each step, cumulative
		state  State
	}{
		{"already up", nil,
			[]step{notify}, []error{nil}, StateUp},
		{"saver completes inline", nil,
			[]step{reset, notify}, []error{nil}, StateUp},
		{"saver completes later", []completion{held},
			[]step{reset, notify, fire(0, nil)}, []error{nil}, StateUp},
		{"joins the wake in flight", []completion{held},
			[]step{reset, wake, notify, notify, wake, fire(0, nil)}, []error{nil, nil}, StateUp},
		{"post-wake save fails", []completion{inlineFail},
			[]step{reset, notify}, []error{errFlaky}, StateDown},
		{"reset tears the wake, the next one succeeds", []completion{held},
			[]step{reset, notify, reset, fire(0, nil), notify}, []error{ErrDown, nil}, StateUp},
		{"wake still in flight", []completion{held},
			[]step{reset, notify}, nil, StateWaking},
	}
	for _, mc := range machines {
		for _, tc := range cases {
			t.Run(mc.name+"/"+tc.name, func(t *testing.T) {
				watchdog.Arm(t, 5*time.Second)
				var st store.Mem
				saver := &scriptedSaver{st: &st, script: tc.script, held: map[int]func(error){}}
				m := mc.build(t, &st, saver)
				outcomes = nil
				for _, s := range tc.steps {
					s(m)
				}
				if len(outcomes) != len(tc.want) {
					t.Fatalf("completions ran with %v, want %v", outcomes, tc.want)
				}
				for i, want := range tc.want {
					if !errors.Is(outcomes[i], want) || (want == nil) != (outcomes[i] == nil) {
						t.Errorf("completion %d ran with %v, want %v", i, outcomes[i], want)
					}
				}
				if m.p.State() != tc.state {
					t.Errorf("state = %v, want %v", m.p.State(), tc.state)
				}
			})
		}
	}
}

// gateSaver is a saver whose StartSave blocks until the test closes gate: a
// hand-off held in flight. It reports each value it is handed on entered
// and records it in got once through the gate.
type gateSaver struct {
	entered chan uint64
	gate    chan struct{}
	got     atomic.Uint64
}

func (s *gateSaver) StartSave(v uint64, done func(error)) {
	s.entered <- v
	<-s.gate
	s.got.Store(v)
	done(nil)
}

// TestConcurrentResetWaitsForHandOff: a Reset that races a save's hand-off
// does not return while the saver's StartSave holds that save, and when it
// does return the save has reached the saver — so a remover that resets an
// endpoint and then flushes its saver once lands every save the old life
// accepted before its tombstone.
func TestConcurrentResetWaitsForHandOff(t *testing.T) {
	endpoints := []struct {
		name  string
		build func(t *testing.T, s *gateSaver) (advance, reset func())
	}{
		{"sender", func(t *testing.T, s *gateSaver) (func(), func()) {
			x, err := NewSender(SenderConfig{K: pipelineK, Store: &store.Mem{}, Saver: s})
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				for i := 0; i < pipelineK; i++ {
					x.Next()
				}
			}, x.Reset
		}},
		{"receiver", func(t *testing.T, s *gateSaver) (func(), func()) {
			r, err := NewReceiver(ReceiverConfig{K: pipelineK, W: 64, Store: &store.Mem{}, Saver: s})
			if err != nil {
				t.Fatal(err)
			}
			return func() { r.Admit(r.Edge() + pipelineK) }, r.Reset
		}},
	}
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			watchdog.Arm(t, 10*time.Second)
			s := &gateSaver{entered: make(chan uint64, 4), gate: make(chan struct{})}
			advance, reset := ep.build(t, s)
			advanced := make(chan struct{})
			go func() { advance(); close(advanced) }()
			v := <-s.entered // the trigger's hand-off is inside StartSave
			resetDone := make(chan struct{})
			go func() { reset(); close(resetDone) }()
			select {
			case <-resetDone:
				t.Fatalf("Reset returned while the hand-off of %d was held in StartSave", v)
			case <-time.After(20 * time.Millisecond):
			}
			close(s.gate)
			<-resetDone
			if got := s.got.Load(); got != v {
				t.Errorf("when Reset returned the saver had %d, want the held save %d", got, v)
			}
			<-advanced
		})
	}
}
