package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"antireplay"
)

const (
	burstLen  = 32  // packets sealed on one flow before moving to the next
	udpWindow = 256 // most packets in flight on the UDP path
	// One packet in sampleEvery is traced. A prime, so that samples fall on
	// every position of a burst: one in 64 would always time the first packet
	// of a 32-packet burst, the one that finds the flow's state out of cache.
	sampleEvery = 61
	replayEvery = 1024 // one delivered packet in this many is re-injected
	parkFor     = time.Millisecond

	// The steady phase alternates traffic with a phase of reference work on
	// the same goroutine (hostRef), so that the two see the same host.
	trafficPhase = 40 * time.Millisecond
	drainPoll    = 50 * time.Microsecond
)

// cycle is one traffic phase and the reference phase after it.
type cycle struct {
	slice           int32 // the slice it began in; -1 during warm-up
	traced          bool
	pkts            uint64        // delivered during the traffic phase
	wall, cpu       time.Duration // of the traffic phase; cpu is the whole process's
	refWall, refCPU time.Duration // of the reference phase; refCPU is its thread's
}

// gate collects correctness breaches. Any breach fails the run.
type gate struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (g *gate) breach(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if len(g.first) < 8 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

// counters are owned by one load goroutine and merged after it stops. What
// was attempted and not delivered has failed.
type counters struct {
	attempted       uint64 // SealAppend returned a sequence number
	delivered       uint64 // delivered once with a byte-identical payload
	backpressure    uint64 // SealAppend returned ErrSaveLag
	horizonDiscards uint64 // receiver discarded at its durable horizon
	replaysInjected uint64
	replaysAccepted uint64
}

func (c *counters) add(o counters) {
	c.attempted += o.attempted
	c.delivered += o.delivered
	c.backpressure += o.backpressure
	c.horizonDiscards += o.horizonDiscards
	c.replaysInjected += o.replaysInjected
	c.replaysAccepted += o.replaysAccepted
}

// load drives traffic from gateway A to gateway B. On the direct path one
// goroutine owns everything; on the UDP path the tx goroutine owns tx, txBuf
// and the generator state, and the rx goroutine owns rx and rxBuf.
type load struct {
	p     *pair
	g     *gate
	tr    *tracer
	epoch time.Time

	order    []int32  // seeded flow visit order
	payloads [][]byte // seeded payload bytes
	pos      int      // cursor into order
	npay     int      // cursor into payloads

	tx, rx       counters
	txBuf, rxBuf []byte

	tracing   atomic.Bool   // set by the sampler for traced slices
	slice     atomic.Int32  // set by the sampler: the slice being measured
	delivered atomic.Uint64 // rx.delivered, published for the sampler
	consumed  atomic.Uint64 // descriptors the rx goroutine is done with (UDP path)

	ref      *hostRef
	cycles   []cycle // owned by the goroutine that seals, like sampling
	sampling bool    // tracing, as read when the cycle began
}

func newLoad(p *pair, g *gate, tr *tracer, rng *rand.Rand) *load {
	l := &load{p: p, g: g, tr: tr, epoch: time.Now(), ref: newHostRef(),
		txBuf: make([]byte, 0, payloadLen+antireplay.ESPOverhead),
		rxBuf: make([]byte, 0, payloadLen)}
	l.order = make([]int32, len(p.flows))
	for i, j := range rng.Perm(len(p.flows)) {
		l.order[i] = int32(j)
	}
	arena := make([]byte, payloadSet*payloadLen)
	rng.Read(arena)
	l.payloads = make([][]byte, payloadSet)
	for i := range l.payloads {
		l.payloads[i] = arena[i*payloadLen : (i+1)*payloadLen : (i+1)*payloadLen]
	}
	return l
}

func (l *load) now() int64 { return int64(time.Since(l.epoch)) }

// seal seals the next payload on f. ok is false when the flow is parked on
// backpressure (or broke the gate). On success f.txSeq is the packet's
// 64-bit sequence number.
func (l *load) seal(f *flow, sample bool) (wire, payload []byte, ok bool) {
	payload = l.payloads[l.npay]
	l.npay = (l.npay + 1) % payloadSet
	var t0 int64
	if sample {
		t0 = l.now()
	}
	wire, err := l.p.a.gw.SealAppend(l.txBuf[:0], f.src, f.dst, payload)
	if sample {
		l.tr.span(stageSeal, l.tx.attempted, t0, l.now())
	}
	if err != nil {
		if errors.Is(err, antireplay.ErrSaveLag) {
			l.tx.backpressure++
		} else {
			l.g.breach("seal on SPI %#x: %v", f.spi, err)
		}
		f.parkedUntil = l.now() + int64(parkFor)
		return nil, nil, false
	}
	// The wire carries the low 32 bits; one goroutine seals a flow, so its
	// numbers must strictly increase.
	step := binary.BigEndian.Uint32(wire[4:8]) - uint32(f.txSeq)
	if step == 0 || step >= 1<<31 {
		l.g.breach("SPI %#x: sequence number %d handed out after %d", f.spi, binary.BigEndian.Uint32(wire[4:8]), f.txSeq)
	}
	f.txSeq += uint64(step)
	l.tx.attempted++
	return wire, payload, true
}

// open hands wire to gateway B and applies the gate: delivered exactly once,
// in order, with the payload that was sealed.
func (l *load) open(f *flow, id, seq uint64, wire, payload []byte, sample bool) {
	var t0 int64
	if sample {
		t0 = l.now()
	}
	out, v, err := l.p.b.gw.OpenAppend(l.rxBuf[:0], wire)
	if sample {
		l.tr.span(stageOpen, id, t0, l.now())
	}
	switch {
	case err != nil:
		l.g.breach("open SPI %#x seq %d: %v", f.spi, seq, err)
	case !v.Delivered():
		if v == antireplay.VerdictHorizon {
			l.rx.horizonDiscards++
		}
	default:
		if !bytes.Equal(out, payload) {
			l.g.breach("SPI %#x seq %d: payload differs", f.spi, seq)
		}
		if seq <= f.rxSeq {
			l.g.breach("SPI %#x: seq %d delivered after %d", f.spi, seq, f.rxSeq)
		}
		f.rxSeq = seq
		l.rx.delivered++
		if l.rx.delivered%replayEvery == 0 {
			l.reinject(wire)
		}
	}
}

// reinject offers gateway B a packet it has already seen; it must refuse.
func (l *load) reinject(wire []byte) {
	_, v, err := l.p.b.gw.OpenAppend(l.rxBuf[:0], wire)
	l.rx.replaysInjected++
	if err == nil && v.Delivered() {
		l.rx.replaysAccepted++
		l.g.breach("replayed packet accepted (%x)", wire[:8])
	}
}

// burst sends up to n packets on f over the direct path and returns how many
// were sealed; fewer than n means the flow is parked.
func (l *load) burst(f *flow, n int, rec *recorder) int {
	sent := 0
	for ; sent < n; sent++ {
		sample := l.sampling && l.tx.attempted%sampleEvery == 0
		id := l.tx.attempted
		var t0 int64
		if sample {
			t0 = l.now()
		}
		wire, payload, ok := l.seal(f, sample)
		if !ok {
			break
		}
		if rec != nil {
			rec.add(wire)
		}
		l.open(f, id, f.txSeq, wire, payload, sample)
		if sample {
			l.tr.span(stagePacket, id, t0, l.now())
		}
	}
	l.delivered.Store(l.rx.delivered)
	if sent > 0 {
		progress.Add(1)
	}
	return sent
}

// nextFlow returns the next flow in visit order that is not parked, or nil
// after a short sleep when every flow is.
func (l *load) nextFlow() *flow {
	for scanned := 0; scanned < len(l.order); scanned++ {
		f := &l.p.flows[l.order[l.pos]]
		if l.pos++; l.pos == len(l.order) {
			l.pos = 0
		}
		if f.parkedUntil == 0 {
			return f
		}
		if l.now() >= f.parkedUntil {
			f.parkedUntil = 0
			return f
		}
	}
	time.Sleep(parkFor / 5)
	return nil
}

// runDirect is the one load goroutine of the direct path.
func (l *load) runDirect(stop *atomic.Bool) {
	for !stop.Load() {
		c := l.beginCycle()
		for end := c.start + int64(trafficPhase); l.now() < end; {
			if f := l.nextFlow(); f != nil {
				l.burst(f, burstLen, nil)
			}
		}
		l.endCycle(c)
	}
}

// openCycle is a cycle whose traffic phase is running.
type openCycle struct {
	start     int64
	cpu       time.Duration
	delivered uint64
	slice     int32
}

func (l *load) beginCycle() openCycle {
	l.sampling = l.tracing.Load()
	return openCycle{start: l.now(), cpu: cpuTime(), delivered: l.delivered.Load(), slice: l.slice.Load()}
}

// endCycle closes the traffic phase, runs the reference phase and records
// both.
func (l *load) endCycle(o openCycle) {
	c := cycle{slice: o.slice, traced: l.sampling, pkts: l.delivered.Load() - o.delivered,
		wall: time.Duration(l.now() - o.start), cpu: cpuTime() - o.cpu}
	c.refWall, c.refCPU = l.ref.phase()
	l.cycles = append(l.cycles, c)
}

// exactly sends exactly n packets on f over the direct path, waiting out
// backpressure, so that count-defined phases repeat from run to run.
func (l *load) exactly(f *flow, n int, rec *recorder) {
	for n > 0 {
		n -= l.burst(f, n, rec)
		if n > 0 {
			time.Sleep(parkFor)
			f.parkedUntil = 0
		}
	}
}

// round sends n packets on every flow in visit order.
func (l *load) round(n int, rec *recorder) {
	for _, i := range l.order {
		l.exactly(&l.p.flows[i], n, rec)
	}
}

// stagger spreads the flows' positions evenly over one SAVE interval. Every
// SA starts at sequence number 1, so without this all of them would reach
// their SAVE points in the same instant, which no set of independent tunnels
// does, and the fsync count of a run would depend on how many such volleys
// happened to fall inside it.
func (l *load) stagger() {
	n := uint64(len(l.order))
	for rank, i := range l.order {
		l.exactly(&l.p.flows[i], int(uint64(rank)*l.p.k/n), nil)
	}
}

// replay re-offers every recorded packet to gateway B; none may be accepted.
func (l *load) replay(rec *recorder) {
	rec.each(func(wire []byte) { l.reinject(wire) })
	progress.Add(1)
}

// desc describes one datagram in flight on the UDP path. The tx goroutine
// fills it and pushes it before sending; sent is stamped after the push
// (which may block on a full window) and so is atomic.
type desc struct {
	f       *flow
	id, seq uint64
	payload []byte
	t0      int64 // seal start when the packet is traced, else 0
	sent    atomic.Int64
}

// runUDPTx is the tx load goroutine: seal, announce, send. The inflight
// channel's capacity is the closed loop's window. A traffic phase ends once
// the rx goroutine has dealt with everything sent in it, so the reference
// phase runs with the path empty.
func (l *load) runUDPTx(link *antireplay.UDPWireLink, inflight chan<- *desc, stop *atomic.Bool) {
	defer close(inflight)
	// A slot is reused only after the rx goroutine has taken the descriptor
	// udpWindow pushes later, by when it is done with this one.
	ring := make([]desc, 2*udpWindow+2)
	next := 0
	var pushed uint64
	for !stop.Load() {
		c := l.beginCycle()
		for end := c.start + int64(trafficPhase); l.now() < end; {
			f := l.nextFlow()
			if f == nil {
				continue
			}
			for i := 0; i < burstLen; i++ {
				sample := l.sampling && l.tx.attempted%sampleEvery == 0
				d := &ring[next]
				d.f, d.id, d.t0 = f, l.tx.attempted, 0
				if sample {
					d.t0 = l.now()
				}
				wire, payload, ok := l.seal(f, sample)
				if !ok {
					break
				}
				d.seq, d.payload = f.txSeq, payload
				if next++; next == len(ring) {
					next = 0
				}
				inflight <- d
				pushed++
				t1 := l.now()
				d.sent.Store(t1)
				if err := link.Send(wire); err != nil {
					l.g.breach("udp send: %v", err)
				}
				if sample {
					l.tr.span(stageSend, d.id, t1, l.now())
				}
			}
		}
		// A lost tail is noticed by rx only when the next datagram arrives;
		// do not wait for it longer than a phase.
		for end := l.now() + int64(trafficPhase); l.consumed.Load() < pushed && l.now() < end; {
			time.Sleep(drainPoll)
		}
		l.endCycle(c)
	}
}

// runUDPRx is the rx load goroutine: receive, match against the oldest
// descriptor in flight, open. It returns when tx has closed inflight and
// every descriptor is accounted for, or when the link is closed under it.
func (l *load) runUDPRx(link *antireplay.UDPWireLink, inflight <-chan *desc) {
	for d := range inflight {
		timed := l.tracing.Load() && l.rx.delivered%sampleEvery == 0
		var t0 int64
		if timed {
			t0 = l.now()
		}
		p, err := link.Recv()
		if err != nil {
			// Closed because nothing arrived for too long: what is still in
			// flight is lost. Keep taking descriptors so that tx can stop.
			for range inflight {
			}
			return
		}
		var t1 int64
		if timed || d.t0 != 0 {
			t1 = l.now()
		}
		if timed {
			l.tr.span(stageRecvWait, d.id, t0, t1)
		}
		for !d.matches(p) {
			// Datagrams arrive in order on one loopback socket pair, so a
			// mismatch means the ones before p were dropped.
			l.consumed.Add(1)
			var ok bool
			if d, ok = <-inflight; !ok {
				l.g.breach("udp: received a datagram nobody sent (%x)", p[:8])
				return
			}
		}
		sample := d.t0 != 0 && t1 != 0
		if sample {
			l.tr.span(stageInflight, d.id, d.sent.Load(), t1)
		}
		l.open(d.f, d.id, d.seq, p, d.payload, sample)
		if sample {
			l.tr.span(stagePacket, d.id, d.t0, l.now())
		}
		l.delivered.Store(l.rx.delivered)
		l.consumed.Add(1)
		progress.Add(1)
	}
}

func (d *desc) matches(p []byte) bool {
	return len(p) >= 8 && binary.BigEndian.Uint32(p[:4]) == d.f.spi &&
		binary.BigEndian.Uint32(p[4:8]) == uint32(d.seq)
}

// recorder keeps copies of wire packets for later replay.
type recorder struct {
	buf  []byte
	ends []int
}

func (r *recorder) reset() { r.buf, r.ends = r.buf[:0], r.ends[:0] }

func (r *recorder) add(wire []byte) {
	r.buf = append(r.buf, wire...)
	r.ends = append(r.ends, len(r.buf))
}

func (r *recorder) each(fn func(wire []byte)) {
	start := 0
	for _, end := range r.ends {
		fn(r.buf[start:end])
		start = end
	}
}
