package wire

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// UDP encapsulation, after RFC 3948 (UDP encapsulation of ESP):
//
//   - an ESP datagram travels as-is — its leading 32-bit SPI (never
//     zero for a real SA) doubles as the demux key;
//   - non-ESP traffic (the IKE exchanges) is prefixed with the 4-byte
//     zero "non-ESP marker", which no ESP packet can start with;
//   - a NAT-T keepalive is the single byte 0xFF, sent when a link has
//     been transmit-idle for the keepalive interval and absorbed (but
//     counted) on receipt.
//
// One UDPEndpoint owns one socket and demultiplexes inbound datagrams to
// its links: ESP by SPI (falling back to the peer address for SPIs
// registered nowhere, so a link opened without SPIs, as testbed's are,
// still receives its peer's ESP), non-ESP and keepalives by peer address.
//
// Outbound, Send copies the datagram into the endpoint's transmit ring and
// returns; one writer goroutine hands whatever has queued to the kernel in
// one call. Inbound, a receive that finds its lane empty takes the
// endpoint's one read turn, reads the socket itself and routes all that one
// call returns, to every link. DESIGN.md, "Transmit ring and batched
// syscalls", has the rules.
const (
	// maxUDPDatagram is the IPv4 UDP payload ceiling.
	maxUDPDatagram = 65507
	// maxRecvDatagram sizes receive buffers: no UDP datagram, IPv6
	// included, is longer; only a coalesced run can arrive truncated.
	maxRecvDatagram = 1 << 16
	natKeepalive    = 0xFF

	defaultRecvQueue = 512
	// socketBuffer sizes the socket's receive and send buffers (4 MiB).
	socketBuffer = 1 << 22

	// The transmit ring. A slot holds any datagram of a 1500-byte-MTU
	// path; a longer one keeps its place and carries its own copy.
	txRingSlots = 128
	txSlotSize  = 2048
	// closeFlush bounds Close's drain of the ring into a stuck socket.
	closeFlush = time.Second
)

// UDPConfig parameterizes an endpoint and its links.
type UDPConfig struct {
	// RecvQueue bounds each link's buffered inbound datagrams (beyond it
	// they drop, as a socket buffer would). 0 means 512.
	RecvQueue int
}

// UDPEndpoint owns one UDP socket and routes its traffic to links.
type UDPEndpoint struct {
	conn  *net.UDPConn
	cfg   UDPConfig
	io    batchIO
	tx    txRing
	wrote chan struct{} // closed by the writer goroutine as it exits
	// turn holds the one right to read the socket. rmu orders reader, the
	// link whose receive last took it, against that link's Close.
	turn   chan struct{}
	rmu    sync.Mutex
	reader *UDPLink

	mu     sync.Mutex
	bySPI  map[uint32]*UDPLink
	byAddr map[netip.AddrPort]*UDPLink
	closed bool

	unrouted, txCalls, rxCalls atomic.Uint64
}

// ListenUDP opens an endpoint on addr ("" means 127.0.0.1:0 — the
// loopback-first default) and starts its writer.
func ListenUDP(addr string, cfg UDPConfig) (*UDPEndpoint, error) {
	return listenUDP(addr, cfg, newBatchIO)
}

// listenUDP is ListenUDP over the batchIO that mkIO makes of the socket.
func listenUDP(addr string, cfg UDPConfig, mkIO func(*net.UDPConn) batchIO) (*UDPEndpoint, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if cfg.RecvQueue == 0 {
		cfg.RecvQueue = defaultRecvQueue
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	conn.SetReadBuffer(socketBuffer)  //nolint:errcheck // best-effort sizing
	conn.SetWriteBuffer(socketBuffer) //nolint:errcheck
	e := &UDPEndpoint{conn: conn, cfg: cfg, io: mkIO(conn),
		wrote: make(chan struct{}), turn: make(chan struct{}, 1),
		bySPI:  make(map[uint32]*UDPLink),
		byAddr: make(map[netip.AddrPort]*UDPLink)}
	e.tx.slots = make([]txSlot, txRingSlots)
	e.tx.cond.L = &e.tx.mu
	e.turn <- struct{}{}
	go e.writeLoop()
	return e, nil
}

// Addr returns the bound local address.
func (e *UDPEndpoint) Addr() netip.AddrPort {
	return e.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Link opens a link toward peer. spis registers the inbound SPIs this
// link receives (the SPIs of the SAs terminating here); inbound non-ESP
// traffic and keepalives from peer route to the link by address.
func (e *UDPEndpoint) Link(peer netip.AddrPort, spis ...uint32) (*UDPLink, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.byAddr[peer]; dup {
		return nil, fmt.Errorf("wire: link to %v already open", peer)
	}
	for _, spi := range spis {
		if spi == 0 {
			return nil, fmt.Errorf("wire: SPI 0 is the non-ESP marker")
		}
		if _, dup := e.bySPI[spi]; dup {
			return nil, fmt.Errorf("wire: SPI %#x already registered", spi)
		}
	}
	l := &UDPLink{ep: e, peer: peer,
		data: make(chan []byte, e.cfg.RecvQueue),
		ctrl: make(chan []byte, e.cfg.RecvQueue),
		done: make(chan struct{})}
	for _, spi := range spis {
		e.bySPI[spi] = l
	}
	l.spis = append(l.spis, spis...)
	e.byAddr[peer] = l
	return l, nil
}

// Close shuts the endpoint down: every link's pending Recv and every Send
// blocked on a full ring return ErrClosed, what Send had already accepted
// is handed to the kernel, and the socket closes. The writer goroutine has
// exited when it returns.
func (e *UDPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	links := make([]*UDPLink, 0, len(e.byAddr))
	for _, l := range e.byAddr {
		links = append(links, l)
	}
	e.mu.Unlock()
	for _, l := range links {
		l.Close() //nolint:errcheck // idempotent
	}
	e.conn.SetWriteDeadline(time.Now().Add(closeFlush)) //nolint:errcheck // bounds the drain below
	e.tx.mu.Lock()
	e.tx.closed = true
	e.tx.cond.Broadcast()
	e.tx.mu.Unlock()
	<-e.wrote
	return e.conn.Close()
}

// Unrouted returns datagrams that matched no link (demux misses).
func (e *UDPEndpoint) Unrouted() uint64 { return e.unrouted.Load() }

// deliver routes one received batch under one acquisition of the endpoint
// lock. The copies the links keep are cut from one allocation, each with
// its capacity clipped so that an append cannot reach its neighbour.
func (e *UDPEndpoint) deliver(msgs []datagram) {
	total := 0
	for _, m := range msgs {
		total += len(m.p)
	}
	chunk := make([]byte, total)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range msgs {
		p, ctrl := m.p, false
		var l *UDPLink
		switch {
		case len(p) == 1 && p[0] == natKeepalive:
			if l = e.byAddr[m.addr]; l != nil {
				l.ctr.keepalives.Add(1)
				continue
			}
			// A keepalive from no known peer is a demux miss like any other.
		case len(p) >= 4 && demuxSPI(p) == 0:
			// Non-ESP marker: control traffic, routed by peer address.
			l, p, ctrl = e.byAddr[m.addr], p[4:], true
		default:
			if l = e.bySPI[demuxSPI(p)]; l == nil {
				l = e.byAddr[m.addr]
			}
		}
		if l == nil {
			e.unrouted.Add(1)
			continue
		}
		if m.trunc {
			l.ctr.rxDrops.Add(1)
			continue
		}
		ch, q := l.data, chunk[:len(p):len(p)]
		if ctrl {
			ch = l.ctrl
		}
		chunk = chunk[copy(q, p):]
		l.enqueue(ch, q)
	}
}

// datagram is one UDP payload and the peer it goes to or came from.
type datagram struct {
	p     []byte
	addr  netip.AddrPort
	trunc bool // longer than the receive buffer: counted, never delivered
}

// maxSegments caps a segmented run: the kernel's UDP_GRO_CNT_MAX, and within
// UDP_MAX_SEGMENTS on every kernel that has UDP_SEGMENT.
const maxSegments = 64

// segmentRun returns how many datagrams from msgs[0] on can cross the kernel
// as one segmented message: to one peer, all as long as the first but a
// shorter last, at most maxSegments and maxUDPDatagram bytes. An empty
// datagram, or one longer than a ring slot, goes alone.
func segmentRun(msgs []datagram) int {
	seg := len(msgs[0].p)
	if seg == 0 || seg > txSlotSize {
		return 1
	}
	n, total := 1, seg
	for ; n < len(msgs) && n < maxSegments; n++ {
		m := msgs[n]
		if m.addr != msgs[0].addr || len(m.p) == 0 || len(m.p) > seg || total+len(m.p) > maxUDPDatagram {
			break
		}
		if total += len(m.p); len(m.p) < seg {
			return n + 1
		}
	}
	return n
}

// splitSegments appends to out the datagrams of one received buffer that the
// kernel coalesced at segment size seg (0: it did not).
func splitSegments(out []datagram, p []byte, seg int, from netip.AddrPort) []datagram {
	for ; seg > 0 && len(p) > seg; p = p[seg:] {
		out = append(out, datagram{p: p[:seg], addr: from})
	}
	return append(out, datagram{p: p, addr: from})
}

// batchIO moves datagrams between an endpoint and its socket, one syscall a
// call: mmsgIO (Linux) many per call, loopIO, the portable form, one.
type batchIO interface {
	// send hands the kernel a prefix of msgs, in order, and returns its
	// length. A non-nil error is the verdict on msgs[n] alone.
	send(msgs []datagram) (n int, err error)
	// recv blocks for at least one datagram. The result is the IO's own
	// memory, valid until the next call.
	recv() ([]datagram, error)
}

// loopIO is batchIO over the net package: one datagram per call.
type loopIO struct {
	conn *net.UDPConn
	buf  []byte
	rx   [1]datagram
}

func newLoopIO(conn *net.UDPConn) *loopIO {
	return &loopIO{conn: conn, buf: make([]byte, maxRecvDatagram)}
}

func (o *loopIO) send(msgs []datagram) (int, error) {
	if _, err := o.conn.WriteToUDPAddrPort(msgs[0].p, msgs[0].addr); err != nil {
		return 0, err
	}
	return 1, nil
}

func (o *loopIO) recv() ([]datagram, error) {
	n, from, err := o.conn.ReadFromUDPAddrPort(o.buf)
	if err != nil {
		return nil, err
	}
	o.rx[0] = datagram{p: o.buf[:n], addr: from}
	return o.rx[:], nil
}

// txRing is the endpoint's FIFO of datagrams Send has accepted and the
// writer has not yet handed to the kernel: slots head to tail, taken modulo
// len(slots). Senders fill the slot at tail under mu; the writer owns the
// slots it has taken until it advances head. One condition serves both:
// senders wait on a full ring, the writer on an empty one, never both.
type txRing struct {
	mu         sync.Mutex
	cond       sync.Cond
	head, tail uint64
	closed     bool
	slots      []txSlot
}

type txSlot struct {
	link *UDPLink
	p    []byte // the datagram: in buf, or a copy of its own when too long
	buf  [txSlotSize]byte
}

func (r *txRing) slot(i uint64) *txSlot { return &r.slots[i%uint64(len(r.slots))] }

// put queues marker zero bytes followed by p for l, waiting while the ring
// is full. p has been copied when it returns.
func (r *txRing) put(l *UDPLink, marker int, p []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.tail-r.head == uint64(len(r.slots)) && !r.closed && !l.isClosed() {
		r.cond.Wait()
	}
	if r.closed || l.isClosed() {
		return ErrClosed
	}
	s, n := r.slot(r.tail), marker+len(p)
	if s.link, s.p = l, s.buf[:]; n > len(s.p) {
		s.p = make([]byte, n)
	}
	s.p = s.p[:n]
	clear(s.p[:marker])
	copy(s.p[marker:], p)
	r.tail++
	r.cond.Broadcast()
	return nil
}

// depth returns how many datagrams are queued.
func (r *txRing) depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.tail - r.head)
}

// writeLoop is the writer goroutine: it takes everything queued, sends it,
// frees the slots, and exits once the ring is closed and empty.
func (e *UDPEndpoint) writeLoop() {
	defer close(e.wrote)
	r := &e.tx
	msgs := make([]datagram, len(r.slots))
	for {
		r.mu.Lock()
		for r.head == r.tail && !r.closed {
			r.cond.Wait()
		}
		head, n := r.head, int(r.tail-r.head)
		r.mu.Unlock()
		if n == 0 {
			return
		}
		e.flush(head, msgs[:n])
		r.mu.Lock()
		r.head += uint64(n)
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// flush sends the len(msgs) datagrams queued from head on, in order. A
// partial send resumes at the first datagram the kernel did not take; one
// the kernel refuses costs its link a TxDrop and the rest go on.
func (e *UDPEndpoint) flush(head uint64, msgs []datagram) {
	for i := range msgs {
		s := e.tx.slot(head + uint64(i))
		msgs[i], s.p = datagram{p: s.p, addr: s.link.peer}, nil // nil: a slot must not pin a long datagram's copy
	}
	for i := 0; i < len(msgs); {
		n, err := e.io.send(msgs[i:])
		e.txCalls.Add(1)
		if i += n; err != nil {
			e.tx.slot(head + uint64(i)).link.ctr.txDrops.Add(1)
			i++
		}
	}
}

// UDPLink is one peer's channel over a shared endpoint socket: a
// bidirectional point-to-point datagram channel. It is safe for one
// concurrent sender and one concurrent receiver; Stats and Close may be
// called from any goroutine.
//
// Send has copied the datagram when it returns and does not wait for the
// network: it waits only while the endpoint's transmit ring is full, as a
// blocking socket waits on a full send buffer. It returns ErrTooLarge for
// a datagram above the UDP payload ceiling and ErrClosed after Close;
// network loss is not an error. Recv blocks until a datagram arrives or
// the link closes (ErrClosed).
type UDPLink struct {
	ep   *UDPEndpoint
	peer netip.AddrPort
	spis []uint32

	data chan []byte
	ctrl chan []byte
	done chan struct{}
	once sync.Once

	ctr struct { // Stats, field for field
		txPackets, txBytes, rxPackets, rxBytes, txDrops, rxDrops, keepalives atomic.Uint64
	}
}

// Send queues one ESP datagram for the peer. It has copied p when it
// returns, and it waits while the endpoint's transmit ring is full.
func (l *UDPLink) Send(p []byte) error { return l.queue(0, p) }

// SendControl queues a non-ESP datagram (IKE traffic) behind the zero
// marker.
func (l *UDPLink) SendControl(p []byte) error { return l.queue(4, p) }

func (l *UDPLink) queue(marker int, p []byte) error {
	n := marker + len(p)
	if n > maxUDPDatagram {
		l.ctr.txDrops.Add(1)
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxUDPDatagram)
	}
	if err := l.ep.tx.put(l, marker, p); err != nil {
		return err
	}
	l.ctr.txPackets.Add(1)
	l.ctr.txBytes.Add(uint64(n))
	return nil
}

func (l *UDPLink) isClosed() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// enqueue counts p before queueing it, so a receiver never holds a datagram
// its link's Stats do not show yet.
func (l *UDPLink) enqueue(ch chan []byte, p []byte) {
	if len(ch) == cap(ch) {
		l.ctr.rxDrops.Add(1)
		return
	}
	l.ctr.rxPackets.Add(1)
	l.ctr.rxBytes.Add(uint64(len(p)))
	ch <- p // cannot block: the turn holder is the only producer
}

// Recv blocks for the next ESP datagram, ErrClosed after Close.
func (l *UDPLink) Recv() ([]byte, error) { return l.recv(l.data, -1) }

// RecvTimeout is Recv bounded by d; it returns ErrNoDatagram on timeout.
func (l *UDPLink) RecvTimeout(d time.Duration) ([]byte, error) { return l.recv(l.data, d) }

// RecvControlTimeout waits at most d for the next non-ESP datagram (IKE
// traffic); it returns ErrNoDatagram on timeout.
func (l *UDPLink) RecvControlTimeout(d time.Duration) ([]byte, error) { return l.recv(l.ctrl, d) }

// recv waits for a datagram on ch, for at most d unless d is negative. While
// ch is empty it contends for the endpoint's read turn.
func (l *UDPLink) recv(ch chan []byte, d time.Duration) ([]byte, error) {
	if p, ok := take(ch); ok {
		return p, nil
	}
	var deadline time.Time
	var timeout <-chan time.Time
	if d >= 0 {
		deadline = time.Now().Add(d)
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	e := l.ep
	for {
		select {
		case p := <-ch:
			return p, nil
		case <-timeout:
			return nil, ErrNoDatagram
		case <-l.done:
			if p, ok := take(ch); ok {
				return p, nil
			}
			return nil, ErrClosed
		case <-e.turn:
		}
		// Only the turn holder fills ch: what is there now is not read past.
		p, ok := take(ch)
		var err error
		if !ok {
			err = l.read(deadline)
			p, ok = take(ch)
		}
		e.turn <- struct{}{}
		switch {
		case ok:
			return p, nil
		case err == nil: // the batch was all for other lanes
		case d >= 0 && !l.isClosed() && errors.Is(err, os.ErrDeadlineExceeded):
			return nil, ErrNoDatagram
		default: // the socket or the link is closed
			return nil, ErrClosed
		}
	}
}

// read is the turn holder's one receive call, deadline zero for none. Under
// rmu, l's Close either finds l the reader and expires the read, or stops it.
func (l *UDPLink) read(deadline time.Time) error {
	e := l.ep
	e.rmu.Lock()
	if l.isClosed() {
		e.rmu.Unlock()
		return ErrClosed
	}
	e.reader = l
	e.conn.SetReadDeadline(deadline) //nolint:errcheck // a closed socket fails the read below
	e.rmu.Unlock()
	msgs, err := e.io.recv()
	if err != nil {
		return err
	}
	e.rxCalls.Add(1)
	e.deliver(msgs)
	return nil
}

// take returns the next datagram on ch without waiting.
func take(ch chan []byte) ([]byte, bool) {
	select {
	case p := <-ch:
		return p, true
	default:
		return nil, false
	}
}

// Peer returns the remote address.
func (l *UDPLink) Peer() netip.AddrPort { return l.peer }

// Endpoint returns the endpoint whose socket the link shares.
func (l *UDPLink) Endpoint() *UDPEndpoint { return l.ep }

// Close detaches the link from its endpoint. Datagrams Send has accepted
// still go out; a Send waiting on a full ring returns ErrClosed once the
// writer next frees a slot.
func (l *UDPLink) Close() error {
	l.once.Do(func() {
		close(l.done)
		e := l.ep
		e.rmu.Lock()
		if e.reader == l {
			e.conn.SetReadDeadline(time.Now()) //nolint:errcheck // the read returns either way
		}
		e.rmu.Unlock()
		e.mu.Lock()
		for _, spi := range l.spis {
			if e.bySPI[spi] == l {
				delete(e.bySPI, spi)
			}
		}
		if e.byAddr[l.peer] == l {
			delete(e.byAddr, l.peer)
		}
		e.mu.Unlock()
	})
	return nil
}

// Stats returns a snapshot of the link counters.
func (l *UDPLink) Stats() Stats {
	c := &l.ctr
	return Stats{
		TxPackets: c.txPackets.Load(), TxBytes: c.txBytes.Load(),
		RxPackets: c.rxPackets.Load(), RxBytes: c.rxBytes.Load(),
		TxDrops: c.txDrops.Load(), RxDrops: c.rxDrops.Load(),
		Keepalives: c.keepalives.Load(),
	}
}
