package netsim

import (
	"fmt"
	"sync"
	"time"
)

// LinkConfig sets the impairment model of a unidirectional link.
type LinkConfig struct {
	// Delay is the base propagation delay applied to every message.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// LossProb is the probability a message is dropped.
	LossProb float64
	// DupProb is the probability a message is delivered twice (the network
	// duplicate arrives after an extra jitter sample).
	DupProb float64
	// ReorderProb is the probability a message is held back by an extra
	// uniform delay in (0, ReorderDelay], letting later traffic overtake it.
	ReorderProb float64
	// ReorderDelay bounds the extra hold-back delay. Together with the send
	// rate it bounds the reorder degree the link can induce.
	ReorderDelay time.Duration
}

// Validate reports configuration errors.
func (c LinkConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LossProb", c.LossProb},
		{"DupProb", c.DupProb},
		{"ReorderProb", c.ReorderProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netsim: %s = %v out of [0,1]", p.name, p.v)
		}
	}
	if c.Delay < 0 || c.Jitter < 0 || c.ReorderDelay < 0 {
		return fmt.Errorf("netsim: negative duration in link config")
	}
	if c.ReorderProb > 0 && c.ReorderDelay == 0 {
		return fmt.Errorf("netsim: ReorderProb > 0 requires ReorderDelay > 0")
	}
	return nil
}

// LinkStats counts what the link did to traffic.
type LinkStats struct {
	Sent       uint64 // messages handed to Send
	Injected   uint64 // messages handed to Inject
	Lost       uint64
	Duplicated uint64
	Reordered  uint64
	Delivered  uint64 // deliveries performed (including duplicates, injections)
}

// Link is a unidirectional impaired channel carrying values of type T into a
// delivery callback. Taps observe every message handed to Send (before
// impairment) — this is the adversary's wiretap position: it sees what the
// sender transmits, even messages the network then loses.
//
// Inject delivers a message through the same delay pipeline but bypasses
// taps and loss (the adversary controls its own injections).
type Link[T any] struct {
	engine  *Engine
	cfg     LinkConfig
	deliver func(T)

	mu    sync.Mutex
	taps  []func(T)
	stats LinkStats
}

// NewLink returns a link over engine delivering into deliver.
// It panics if cfg fails validation or deliver is nil (programmer error).
func NewLink[T any](engine *Engine, cfg LinkConfig, deliver func(T)) *Link[T] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if deliver == nil {
		panic("netsim: nil deliver callback")
	}
	return &Link[T]{engine: engine, cfg: cfg, deliver: deliver}
}

// Tap registers fn to observe every message handed to Send. Safe to call
// while traffic is flowing: an adversary attaches its wiretap mid-run
// (campaign phases arm and disarm taps against live links).
func (l *Link[T]) Tap(fn func(T)) {
	l.mu.Lock()
	l.taps = append(l.taps, fn)
	l.mu.Unlock()
}

// Send transmits v, applying taps and the impairment model.
func (l *Link[T]) Send(v T) {
	l.mu.Lock()
	l.stats.Sent++
	taps := l.taps
	l.mu.Unlock()
	// Taps run outside the lock: a tap is allowed to call back into the
	// link (the adversary's tap->inject shape) without deadlocking.
	for _, tap := range taps {
		tap(v)
	}
	rng := l.engine.Rand()
	if l.cfg.LossProb > 0 && rng.Float64() < l.cfg.LossProb {
		l.count(func(s *LinkStats) { s.Lost++ })
		return
	}
	delay := l.delay()
	if l.cfg.ReorderProb > 0 && rng.Float64() < l.cfg.ReorderProb {
		extra := time.Duration(rng.Int63n(int64(l.cfg.ReorderDelay))) + 1
		delay += extra
		l.count(func(s *LinkStats) { s.Reordered++ })
	}
	l.scheduleDelivery(v, delay)
	if l.cfg.DupProb > 0 && rng.Float64() < l.cfg.DupProb {
		l.count(func(s *LinkStats) { s.Duplicated++ })
		l.scheduleDelivery(v, delay+l.delay())
	}
}

// Inject delivers v after the base delay pipeline, bypassing taps and loss.
func (l *Link[T]) Inject(v T) {
	l.count(func(s *LinkStats) { s.Injected++ })
	l.scheduleDelivery(v, l.delay())
}

// Stats returns a snapshot of the link counters.
func (l *Link[T]) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

func (l *Link[T]) count(f func(*LinkStats)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(&l.stats)
}

func (l *Link[T]) delay() time.Duration {
	d := l.cfg.Delay
	if l.cfg.Jitter > 0 {
		d += time.Duration(l.engine.Rand().Int63n(int64(l.cfg.Jitter)))
	}
	return d
}

func (l *Link[T]) scheduleDelivery(v T, delay time.Duration) {
	l.engine.After(delay, func() {
		l.count(func(s *LinkStats) { s.Delivered++ })
		l.deliver(v)
	})
}
