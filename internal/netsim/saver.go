package netsim

import (
	"antireplay/internal/store"
)

import "time"

// SimSaver models the paper's background SAVE inside the simulation: the
// durable commit and the completion callback happen saveDelay after the save
// starts, in virtual time. A reset that occurs before the commit event fires
// can cancel it (Cancel), which leaves the previously committed value in the
// store — exactly the paper's torn-save semantics, driving the "reset before
// the current SAVE finishes" branch of Figures 1 and 2.
type SimSaver struct {
	engine    *Engine
	st        store.Store
	saveDelay time.Duration
	epoch     uint64 // cancels in-flight saves when bumped
	inflight  int
	started   uint64
	committed uint64
}

// NewSimSaver returns a saver committing to st after saveDelay virtual time.
func NewSimSaver(engine *Engine, st store.Store, saveDelay time.Duration) *SimSaver {
	return &SimSaver{engine: engine, st: st, saveDelay: saveDelay}
}

// StartSave schedules the durable commit of v at now+saveDelay. done (may be
// nil) runs after the commit with its result. If Cancel intervenes, neither
// happens.
func (s *SimSaver) StartSave(v uint64, done func(error)) {
	epoch := s.epoch
	s.inflight++
	s.started++
	s.engine.After(s.saveDelay, func() {
		if s.epoch != epoch {
			return // canceled by a reset; the old durable value remains
		}
		s.inflight--
		s.committed++
		err := s.st.Save(v)
		if done != nil {
			done(err)
		}
	})
}

// Cancel discards all in-flight saves (a machine reset: the write never
// reaches the platter) and returns how many it tore. Already-committed
// values are untouched.
func (s *SimSaver) Cancel() int {
	torn := s.inflight
	s.epoch++
	s.inflight = 0
	return torn
}

// InFlight reports whether a save is pending commit.
func (s *SimSaver) InFlight() bool { return s.inflight > 0 }

// Started and Committed report save counts for experiments.
func (s *SimSaver) Started() uint64 { return s.started }

// Committed reports how many saves reached the durable store.
func (s *SimSaver) Committed() uint64 { return s.committed }

// Delay returns the configured save latency.
func (s *SimSaver) Delay() time.Duration { return s.saveDelay }
