// Package adversary implements the paper's replay attacker: a wiretap that
// records every message the sender transmits, plus injection strategies that
// replay recorded traffic into the receiver.
//
// The adversary is Dolev-Yao-restricted to replay: it cannot forge message
// contents (the SA's integrity key prevents that), only re-insert copies of
// messages it has observed — "an adversary can insert in the message stream
// from p to q a copy of any message t that was sent earlier by p" (§2).
//
// Recorder taps a link at the wiretap position (seeing what the sender
// transmits, including messages the network then loses — the adversary's
// antenna is not subject to the victim's packet loss), and Replayer turns
// the recording into injection schedules: everything at once after a
// wake-up (the §3 catastrophe's strongest shape), a sliding window of
// recent traffic, or arbitrary programmed subsets. Injections bypass the
// link's loss model because the adversary controls its own transmissions.
// The experiment harness pairs every replayed packet with ground truth in
// experiments.Matrix, so "replay accepted" is counted from the harness's
// knowledge, not inferred from verdicts.
package adversary

import (
	"sync"
	"time"

	"antireplay/internal/netsim"
)

// Recorder captures wire traffic of type T for later replay.
// It is safe for concurrent use.
type Recorder[T any] struct {
	mu   sync.Mutex
	msgs []T
}

// NewRecorder returns an empty recorder.
func NewRecorder[T any]() *Recorder[T] { return &Recorder[T]{} }

// Tap returns a callback suitable for Link.Tap that records each message.
func (r *Recorder[T]) Tap() func(T) {
	return func(v T) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.msgs = append(r.msgs, v)
	}
}

// Record stores one message directly.
func (r *Recorder[T]) Record(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, v)
}

// Len returns the number of recorded messages.
func (r *Recorder[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

// Messages returns a copy of the recorded messages in capture order.
func (r *Recorder[T]) Messages() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, len(r.msgs))
	copy(out, r.msgs)
	return out
}

// Injector abstracts the adversary's write access to the channel; a
// *netsim.Link[T] satisfies it.
type Injector[T any] interface {
	Inject(v T)
}

var _ Injector[int] = (*netsim.Link[int])(nil)

// Replayer schedules replay attacks on a simulation engine.
type Replayer[T any] struct {
	engine   *netsim.Engine
	inject   Injector[T]
	recorder *Recorder[T]
	injected uint64
	mu       sync.Mutex
}

// NewReplayer returns a replayer injecting recorder's captures into inject.
func NewReplayer[T any](engine *netsim.Engine, inject Injector[T], recorder *Recorder[T]) *Replayer[T] {
	return &Replayer[T]{engine: engine, inject: inject, recorder: recorder}
}

// Injected returns how many messages the adversary has injected so far.
func (a *Replayer[T]) Injected() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.injected
}

func (a *Replayer[T]) doInject(v T) {
	a.mu.Lock()
	a.injected++
	a.mu.Unlock()
	a.inject.Inject(v)
}

// ReplayAllAt schedules, starting at virtual time start, an in-order replay
// of everything recorded by then, one injection every gap. This is the §3
// attack against a freshly reset receiver: "an adversary can replay in order
// all the messages with sequence numbers within the range from 1 to x".
// It returns the number of messages scheduled.
func (a *Replayer[T]) ReplayAllAt(start time.Duration, gap time.Duration) int {
	msgs := a.recorder.Messages()
	for i, m := range msgs {
		m := m
		a.engine.At(start+time.Duration(i)*gap, func() { a.doInject(m) })
	}
	return len(msgs)
}
