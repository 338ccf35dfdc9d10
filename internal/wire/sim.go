package wire

import (
	"sync"

	"antireplay/internal/netsim"
)

// SimLink adapts a pair of unidirectional netsim links into the
// bidirectional Link contract. Deliveries are driven by the simulation
// engine: they land in a bounded queue for Recv (which never blocks —
// ErrNoDatagram means "run the engine") or, once OnRecv is registered,
// go inline to the handler in engine context, which is what the
// deterministic experiments want.
//
// SimLink exposes the adversary positions of the underlying netsim link:
// Tap wiretaps everything this endpoint sends (before impairment) and
// Inject writes into the channel toward the peer, bypassing taps and
// loss.
type SimLink struct {
	out *netsim.Link[[]byte] // the channel toward the peer

	mu      sync.Mutex
	queue   [][]byte
	handler Handler
	closed  bool
	stats   Stats
}

// simQueueBound caps the Recv queue; beyond it deliveries are dropped
// and counted, as a socket's receive buffer would.
const simQueueBound = 4096

// NewSimPair builds two cross-connected SimLinks over engine: ab is the
// impairment model (delay, loss, duplication, reorder) of the a→b
// direction, ba of b→a. Datagrams of any size are carried whole.
func NewSimPair(engine *netsim.Engine, ab, ba netsim.LinkConfig) (a, b *SimLink) {
	a, b = &SimLink{}, &SimLink{}
	a.out = netsim.NewLink(engine, ab, b.deliver)
	b.out = netsim.NewLink(engine, ba, a.deliver)
	return a, b
}

func (l *SimLink) deliver(p []byte) {
	l.mu.Lock()
	if l.closed {
		l.stats.RxDrops++
		l.mu.Unlock()
		return
	}
	l.stats.RxPackets++
	l.stats.RxBytes += uint64(len(p))
	if h := l.handler; h != nil {
		l.mu.Unlock()
		h(p)
		return
	}
	if len(l.queue) >= simQueueBound {
		l.stats.RxPackets--
		l.stats.RxBytes -= uint64(len(p))
		l.stats.RxDrops++
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, p)
	l.mu.Unlock()
}

// Send transmits a copy of p toward the peer through the simulated
// impairments: the engine delivers later, when the caller may already have
// reused p.
func (l *SimLink) Send(p []byte) error {
	l.mu.Lock()
	if l.closed {
		l.stats.TxDrops++
		l.mu.Unlock()
		return ErrClosed
	}
	l.stats.TxPackets++
	l.stats.TxBytes += uint64(len(p))
	l.mu.Unlock()
	l.out.Send(append([]byte(nil), p...))
	return nil
}

// Recv returns the next engine-delivered datagram, or ErrNoDatagram when
// the queue is empty (run the engine), or ErrClosed.
func (l *SimLink) Recv() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		return nil, ErrNoDatagram
	}
	p := l.queue[0]
	l.queue = l.queue[1:]
	return p, nil
}

// OnRecv routes subsequent deliveries inline to h (engine context),
// bypassing the Recv queue. Datagrams already queued stay for Recv.
func (l *SimLink) OnRecv(h Handler) {
	l.mu.Lock()
	l.handler = h
	l.mu.Unlock()
}

// Close marks the link closed; further Sends fail and deliveries drop.
func (l *SimLink) Close() error {
	l.mu.Lock()
	l.closed = true
	l.queue = nil
	l.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the endpoint counters.
func (l *SimLink) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Tap registers fn at the wiretap position of the channel toward the
// peer: it observes every datagram handed to Send, including ones the
// network then loses.
func (l *SimLink) Tap(fn func(p []byte)) { l.out.Tap(fn) }

// Inject writes p into the channel toward the peer, bypassing taps and
// loss — the adversary's transmitter.
func (l *SimLink) Inject(p []byte) { l.out.Inject(p) }

var (
	_ Link           = (*SimLink)(nil)
	_ InlineReceiver = (*SimLink)(nil)
	_ Tapper         = (*SimLink)(nil)
	_ Injector       = (*SimLink)(nil)
)
