//go:build sockets

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"antireplay/internal/watchdog"
)

// The transmit ring, the writer goroutine and the batched read loop, over
// real loopback sockets. Every test runs twice: over the platform's batchIO
// (sendmmsg/recvmmsg on Linux) and over the portable loop, which no
// platform this suite runs on would otherwise use.

func ioKinds(t *testing.T, fn func(t *testing.T, mkIO func(*net.UDPConn) batchIO)) {
	t.Run("platform", func(t *testing.T) { fn(t, newBatchIO) })
	t.Run("loop", func(t *testing.T) { fn(t, func(c *net.UDPConn) batchIO { return newLoopIO(c) }) })
}

// gateIO holds an endpoint's sends and receives until the test opens the
// gate, so that a ring runs full or a socket buffer collects a batch.
type gateIO struct {
	batchIO
	tx, rx chan struct{} // closed means open
}

func (g *gateIO) send(msgs []datagram) (int, error) { <-g.tx; return g.batchIO.send(msgs) }
func (g *gateIO) recv() ([]datagram, error)         { <-g.rx; return g.batchIO.recv() }

// gatedPair is udpPair on addr over mkIO, with a's sends and b's receives
// behind the returned gates. Links: a→b SPI 0x10, b→a SPI 0x20.
func gatedPair(t *testing.T, addr string, cfg UDPConfig, mkIO func(*net.UDPConn) batchIO) (la, lb *UDPLink, txGate, rxGate chan struct{}) {
	t.Helper()
	watchdog.Arm(t, 30*time.Second)
	txGate, rxGate = make(chan struct{}), make(chan struct{})
	open := make(chan struct{})
	close(open)
	ea, err := listenUDP(addr, cfg, func(c *net.UDPConn) batchIO { return &gateIO{mkIO(c), txGate, open} })
	if err != nil {
		t.Skipf("listen %q: %v", addr, err)
	}
	t.Cleanup(func() { ea.Close() })
	eb, err := listenUDP(addr, cfg, func(c *net.UDPConn) batchIO { return &gateIO{mkIO(c), open, rxGate} })
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	t.Cleanup(func() { eb.Close() })
	if la, err = ea.Link(eb.Addr(), 0x20); err != nil {
		t.Fatalf("link a: %v", err)
	}
	if lb, err = eb.Link(ea.Addr(), 0x10); err != nil {
		t.Fatalf("link b: %v", err)
	}
	return la, lb, txGate, rxGate
}

// openPair is gatedPair with both gates open.
func openPair(t *testing.T, addr string, cfg UDPConfig, mkIO func(*net.UDPConn) batchIO) (la, lb *UDPLink) {
	la, lb, tx, rx := gatedPair(t, addr, cfg, mkIO)
	close(tx)
	close(rx)
	return la, lb
}

// waitFor polls cond; sockTimeout is the limit.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(sockTimeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// numbered writes datagram i of a test stream into buf: SPI, index, then a
// fill that depends on the index. Sizes cycle through small, larger than a
// ring slot and, once, the UDP ceiling.
func numbered(buf []byte, spi uint32, i int) []byte {
	n := 16 + i%200
	switch {
	case i == 300:
		n = maxUDPDatagram
	case i%97 == 0:
		n = txSlotSize + 1 + i%1000
	}
	return stamp(buf[:n], spi, i)
}

// stamp fills p (at least 12 bytes) as datagram i of a stream: SPI, index,
// then a fill that depends on the index.
func stamp(p []byte, spi uint32, i int) []byte {
	binary.BigEndian.PutUint32(p, spi)
	binary.BigEndian.PutUint64(p[4:], uint64(i))
	for j := 12; j < len(p); j++ {
		p[j] = byte(i + j)
	}
	return p
}

// Order survives ring wraps and datagrams too large for a slot, and Send has
// copied its argument when it returns: the sender builds every datagram in
// one buffer and scribbles over it at once.
func TestTransportUDPRingOrderAndCopy(t *testing.T) {
	ioKinds(t, func(t *testing.T, mkIO func(*net.UDPConn) batchIO) {
		la, lb := openPair(t, "", UDPConfig{}, mkIO)
		const total = 6 * txRingSlots
		// Fewer in flight than the receive queue holds, so nothing drops.
		credits := make(chan struct{}, defaultRecvQueue/2)
		sendErr := make(chan error, 1)
		go func() {
			buf := make([]byte, maxUDPDatagram)
			for i := 0; i < total; i++ {
				credits <- struct{}{}
				p := numbered(buf, 0x10, i)
				if err := la.Send(p); err != nil {
					sendErr <- err
					return
				}
				for j := range p {
					p[j] = 0xEE
				}
			}
			sendErr <- nil
		}()
		want := make([]byte, maxUDPDatagram)
		for i := 0; i < total; i++ {
			got, err := lb.RecvTimeout(sockTimeout)
			if err != nil {
				t.Fatalf("datagram %d: %v", i, err)
			}
			if w := numbered(want, 0x10, i); !bytes.Equal(got, w) {
				t.Fatalf("datagram %d: got %d bytes starting %x, want %d starting %x",
					i, len(got), got[:12], len(w), w[:12])
			}
			<-credits
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("Send: %v", err)
		}
		if s := la.Stats(); s.TxPackets != total || s.TxDrops != 0 {
			t.Errorf("sender stats = %+v", s)
		}
		if s := lb.Stats(); s.RxPackets != total || s.RxDrops != 0 {
			t.Errorf("receiver stats = %+v", s)
		}
	})
}

// A maximum-size datagram arrives whole, and a received slice is the
// caller's alone: appending to one cannot reach the next, even when both
// were cut from one batch.
func TestTransportUDPRecvOwnership(t *testing.T) {
	ioKinds(t, func(t *testing.T, mkIO func(*net.UDPConn) batchIO) {
		la, lb, txGate, rxGate := gatedPair(t, "", UDPConfig{}, mkIO)
		close(txGate)
		buf := make([]byte, maxUDPDatagram)
		first := bytes.Clone(numbered(buf, 0x10, 300))
		second := bytes.Clone(numbered(buf, 0x10, 301))
		for _, p := range [][]byte{first, second} {
			if err := la.Send(p); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		// Both are in b's socket buffer before b reads: one batch.
		waitFor(t, "the ring to drain", func() bool { return la.ep.tx.depth() == 0 })
		close(rxGate)
		got1, err := lb.RecvTimeout(sockTimeout)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := lb.RecvTimeout(sockTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if len(got1) != maxUDPDatagram || !bytes.Equal(got1, first) {
			t.Fatalf("first: %d bytes, want %d unchanged", len(got1), maxUDPDatagram)
		}
		_ = append(got1, bytes.Repeat([]byte{0xAA}, 64)...)
		if !bytes.Equal(got2, second) {
			t.Fatalf("append to the first datagram changed the second: %x", got2[:16])
		}
		if err := la.Send(make([]byte, maxUDPDatagram+1)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("oversize Send: %v, want ErrTooLarge", err)
		}
	})
}

// Control traffic, a keepalive, a datagram nobody claims and ESP keep their
// lanes and counters when one receive returns all four.
func TestTransportUDPMixedBatch(t *testing.T) {
	ioKinds(t, func(t *testing.T, mkIO func(*net.UDPConn) batchIO) {
		la, lb, txGate, rxGate := gatedPair(t, "", UDPConfig{}, mkIO)
		close(txGate)
		ctrl, data := esp(0x10, []byte("control body that looks like ESP")), esp(0x10, []byte("data"))
		if err := la.SendControl(ctrl); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the ring to drain", func() bool { return la.ep.tx.depth() == 0 })
		to := net.UDPAddrFromAddrPort(lb.ep.Addr())
		if _, err := la.ep.conn.WriteToUDP([]byte{natKeepalive}, to); err != nil {
			t.Fatal(err)
		}
		stranger, err := net.DialUDP("udp", nil, to)
		if err != nil {
			t.Fatal(err)
		}
		defer stranger.Close()
		if _, err := stranger.Write(esp(0x77, []byte("no such SPI, no such peer"))); err != nil {
			t.Fatal(err)
		}
		if err := la.Send(data); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the ring to drain", func() bool { return la.ep.tx.depth() == 0 })
		close(rxGate)

		if got, err := lb.RecvTimeout(sockTimeout); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("data lane: %q, %v", got, err)
		}
		if got, err := lb.RecvControlTimeout(sockTimeout); err != nil || !bytes.Equal(got, ctrl) {
			t.Fatalf("control lane: %q, %v", got, err)
		}
		if _, err := lb.RecvTimeout(20 * time.Millisecond); err != ErrNoDatagram {
			t.Fatalf("data lane after: %v, want ErrNoDatagram", err)
		}
		if s := lb.Stats(); s.Keepalives != 1 || s.RxPackets != 2 || s.RxDrops != 0 {
			t.Errorf("receiver stats = %+v", s)
		}
		if n := lb.ep.Unrouted(); n != 1 {
			t.Errorf("unrouted = %d, want 1", n)
		}
		if _, loop := lb.ep.io.(*gateIO).batchIO.(*loopIO); !loop && lb.ep.rxCalls.Load() != 1 {
			t.Errorf("four datagrams took %d receive calls, want 1", lb.ep.rxCalls.Load())
		}
	})
}

// Senders waiting on a full ring are released with ErrClosed: at once by
// closing the endpoint, and by closing their link as soon as the writer
// frees a slot. No goroutine of the endpoint outlives Close.
func TestTransportUDPFullRingClose(t *testing.T) {
	for _, closeLink := range []bool{false, true} {
		name := map[bool]string{false: "endpoint", true: "link"}[closeLink]
		t.Run(name, func(t *testing.T) {
			ioKinds(t, func(t *testing.T, mkIO func(*net.UDPConn) batchIO) {
				baseline := runtime.NumGoroutine()
				la, lb, txGate, rxGate := gatedPair(t, "", UDPConfig{}, mkIO)
				close(rxGate)
				// The writer is held, so the ring takes txRingSlots
				// datagrams and every sender then waits.
				const senders = 3
				errs := make(chan error, senders)
				for range senders {
					go func() {
						for {
							if err := la.Send(esp(0x10, []byte("queued"))); err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				waitFor(t, "a full ring", func() bool { return la.ep.tx.depth() == txRingSlots })
				closed := make(chan struct{})
				if closeLink {
					la.Close()
					close(txGate)
					close(closed)
				} else {
					go func() { la.ep.Close(); close(closed) }()
				}
				for range senders {
					if err := <-errs; err != ErrClosed {
						t.Errorf("blocked Send returned %v, want ErrClosed", err)
					}
				}
				// What Send accepted before the close still goes out.
				if !closeLink {
					close(txGate)
				}
				<-closed
				for i := range txRingSlots {
					if _, err := lb.RecvTimeout(sockTimeout); err != nil {
						t.Fatalf("queued datagram %d: %v", i, err)
					}
				}
				la.ep.Close()
				lb.ep.Close()
				waitFor(t, "the endpoints' goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
				if err := la.Send(esp(0x10, nil)); err != ErrClosed {
					t.Errorf("Send after Close = %v, want ErrClosed", err)
				}
			})
		})
	}
}

// flakyIO takes at most three datagrams a call and refuses every fifth it
// is offered, the way a partial and a failed sendmmsg report themselves.
type flakyIO struct {
	batchIO
	offered int
}

func (f *flakyIO) send(msgs []datagram) (int, error) {
	n, refused := min(len(msgs), 3), false
	for i := range n {
		if f.offered++; f.offered%5 == 0 {
			n, refused = i, true
			break
		}
	}
	for sent := 0; sent < n; {
		k, err := f.batchIO.send(msgs[sent:n])
		if sent += k; err != nil {
			return sent, err
		}
	}
	if refused {
		return n, errors.New("refused")
	}
	return n, nil
}

// A partial send resumes at the first datagram the kernel did not take; a
// refused one costs its link a TxDrop and nothing else.
func TestTransportUDPPartialAndRefusedSends(t *testing.T) {
	ioKinds(t, func(t *testing.T, mkIO func(*net.UDPConn) batchIO) {
		la, lb := openPair(t, "", UDPConfig{}, func(c *net.UDPConn) batchIO { return &flakyIO{batchIO: mkIO(c)} })
		const total = 2 * txRingSlots
		buf := make([]byte, maxUDPDatagram)
		for i := range total {
			if err := la.Send(numbered(buf, 0x10, i)); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		for i := range total {
			if (i+1)%5 == 0 {
				continue // refused
			}
			got, err := lb.RecvTimeout(sockTimeout)
			if err != nil {
				t.Fatalf("datagram %d: %v", i, err)
			}
			if want := numbered(buf, 0x10, i); !bytes.Equal(got, want) {
				t.Fatalf("datagram %d: got %x", i, got[:12])
			}
		}
		if s := la.Stats(); s.TxPackets != total || s.TxDrops != total/5 {
			t.Errorf("sender stats = %+v, want %d drops", s, total/5)
		}
	})
}

// An IPv6 socket pair carries both lanes: addresses of the other family go
// through the same sendmmsg/recvmmsg path.
func TestTransportUDPIPv6(t *testing.T) {
	ioKinds(t, func(t *testing.T, mkIO func(*net.UDPConn) batchIO) {
		la, lb := openPair(t, "[::1]:0", UDPConfig{}, mkIO) // skips where ::1 is absent
		want := esp(0x10, []byte("over ::1"))
		if err := la.Send(want); err != nil {
			t.Fatal(err)
		}
		if got, err := lb.RecvTimeout(sockTimeout); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("data: %q, %v", got, err)
		}
		// The control lane routes by source address, so it needs the
		// receive path to read an IPv6 sockaddr right.
		if err := lb.SendControl([]byte("reply")); err != nil {
			t.Fatal(err)
		}
		if got, err := la.RecvControlTimeout(sockTimeout); err != nil || string(got) != "reply" {
			t.Fatalf("control: %q, %v", got, err)
		}
		if n := la.ep.Unrouted() + lb.ep.Unrouted(); n != 0 {
			t.Errorf("unrouted = %d", n)
		}
	})
}

// heldIO makes the writer wait in send while hold is locked, so that a ring
// filled meanwhile goes out in at most two flushes.
type heldIO struct {
	batchIO
	hold *sync.Mutex
}

func (h heldIO) send(msgs []datagram) (int, error) {
	h.hold.Lock()
	h.hold.Unlock() //nolint:staticcheck // a gate, not a critical section
	return h.batchIO.send(msgs)
}

// sendHeld sends n same-size datagrams from index from through la while its
// writer is held, then waits for the ring to drain.
func sendHeld(t *testing.T, la *UDPLink, hold *sync.Mutex, from, n, size int) {
	t.Helper()
	buf := make([]byte, size)
	hold.Lock()
	for i := from; i < from+n; i++ {
		if err := la.Send(stamp(buf, 0x10, i)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	hold.Unlock()
	waitFor(t, "the ring to drain", func() bool { return la.ep.tx.depth() == 0 })
}

// recvStamped receives datagrams from through to-1 of size bytes, in order.
func recvStamped(t *testing.T, lb *UDPLink, from, to, size int) {
	t.Helper()
	want := make([]byte, size)
	for i := from; i < to; i++ {
		got, err := lb.RecvTimeout(sockTimeout)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if !bytes.Equal(got, stamp(want, 0x10, i)) {
			t.Fatalf("datagram %d: got %d bytes starting %x", i, len(got), got[:min(12, len(got))])
		}
	}
}

// segmenting reports whether an endpoint's batchIO (under a gateIO and a
// heldIO) is mmsgIO with segmentation offload on.
func segmenting(e *UDPEndpoint) bool {
	m, ok := e.io.(*gateIO).batchIO.(heldIO).batchIO.(*mmsgIO)
	return ok && m.segment
}

// Same-size datagrams to one peer cross the kernel as runs, one message a
// run each way, and arrive whole and in order. A mixed run — two peers, a
// control datagram, a shorter one, one longer than a slot — keeps each
// endpoint's FIFO and each datagram's lane.
func TestTransportUDPSegmented(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		var hold sync.Mutex
		la, lb, txGate, rxGate := gatedPair(t, "", UDPConfig{}, func(c *net.UDPConn) batchIO { return heldIO{newBatchIO(c), &hold} })
		close(txGate)
		const total, size = 2 * txRingSlots, 84
		sendHeld(t, la, &hold, 0, txRingSlots, size)
		sendHeld(t, la, &hold, txRingSlots, txRingSlots, size)
		close(rxGate)
		recvStamped(t, lb, 0, total, size)
		if s := la.Stats(); s.TxPackets != total || s.TxDrops != 0 {
			t.Errorf("sender stats = %+v", s)
		}
		if s := lb.Stats(); s.RxPackets != total || s.RxDrops != 0 {
			t.Errorf("receiver stats = %+v", s)
		}
		if !segmenting(la.ep) || !segmenting(lb.ep) {
			t.Skip("no segmentation offload here: call counts not checked")
		}
		tx, rx := la.ep.txCalls.Load(), lb.ep.rxCalls.Load()
		t.Logf("%d datagrams: %d send calls, %d receive calls", total, tx, rx)
		// Unsegmented, recvmmsg takes rxBatch datagrams a call: total/16.
		if tx > total/16 || rx > total/64 {
			t.Errorf("%d datagrams took %d send and %d receive calls, want <= %d and <= %d", total, tx, rx, total/16, total/64)
		}
	})
	t.Run("mixed", func(t *testing.T) {
		var hold sync.Mutex
		la, lb, txGate, rxGate := gatedPair(t, "", UDPConfig{}, func(c *net.UDPConn) batchIO { return heldIO{newBatchIO(c), &hold} })
		close(txGate)
		ec, err := ListenUDP("", UDPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ec.Close() })
		toC, err := la.ep.Link(ec.Addr(), 0x40)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := ec.Link(la.ep.Addr(), 0x30)
		if err != nil {
			t.Fatal(err)
		}
		// a→b runs broken by three to c, by a control datagram of the runs'
		// size (marker included), a shorter one and one longer than a slot.
		type lane struct {
			rx   *UDPLink
			ctrl bool
		}
		type step struct {
			to   *UDPLink
			spi  uint32
			size int
			on   lane // where it must arrive
		}
		var steps []step
		add := func(n int, to *UDPLink, ctrl bool, size int) {
			st := step{to, 0x10, size, lane{lb, ctrl}}
			if to == toC {
				st.spi, st.on.rx = 0x30, lc
			}
			for range n {
				steps = append(steps, st)
			}
		}
		add(4, la, false, 100)
		add(3, toC, false, 100)
		add(1, la, true, 96)
		add(2, la, false, 100)
		add(1, la, false, 60)
		add(2, la, false, 100)
		add(1, la, false, txSlotSize+100)
		add(2, la, false, 100)
		want := map[lane][][]byte{}
		hold.Lock()
		for i, st := range steps {
			p := stamp(make([]byte, st.size), st.spi, i)
			send := st.to.Send
			if st.on.ctrl {
				send = st.to.SendControl
			}
			if err := send(p); err != nil {
				t.Fatal(err)
			}
			want[st.on] = append(want[st.on], p)
		}
		hold.Unlock()
		waitFor(t, "the ring to drain", func() bool { return la.ep.tx.depth() == 0 })
		close(rxGate)
		for ln, ps := range want {
			for i, w := range ps {
				recv := ln.rx.RecvTimeout
				if ln.ctrl {
					recv = ln.rx.RecvControlTimeout
				}
				if got, err := recv(sockTimeout); err != nil || !bytes.Equal(got, w) {
					t.Fatalf("%v control=%v datagram %d: %d bytes, %v; want %d bytes", ln.rx.peer, ln.ctrl, i, len(got), err, len(w))
				}
			}
		}
		if _, err := lb.RecvTimeout(20 * time.Millisecond); err != ErrNoDatagram {
			t.Fatalf("b data lane after: %v, want ErrNoDatagram", err)
		}
		if n := lb.ep.Unrouted() + ec.Unrouted(); n != 0 {
			t.Errorf("unrouted = %d", n)
		}
	})
}

// A path that cannot segment says EIO: the refused run's datagrams go again
// one message each, and segmentation stays off for the endpoint.
func TestTransportUDPSegmentEIO(t *testing.T) {
	var hold sync.Mutex
	var m *mmsgIO
	refused := 0
	la, lb, txGate, rxGate := gatedPair(t, "", UDPConfig{}, func(c *net.UDPConn) batchIO {
		io := newBatchIO(c)
		if mm, ok := io.(*mmsgIO); ok && m == nil {
			m = mm
			call := m.tx.call
			m.tx.call = func(n int) (int, error) {
				for i := range n {
					if m.tx.hdrs[i].hdr.Iovlen > 1 {
						if refused++; i == 0 {
							return 0, syscall.EIO
						}
						return call(i)
					}
				}
				return call(n)
			}
		}
		return heldIO{io, &hold}
	})
	close(txGate)
	close(rxGate)
	if m == nil || !m.segment {
		t.Skip("no segmentation offload here")
	}
	const total, size = 2 * txRingSlots, 84
	sendHeld(t, la, &hold, 0, txRingSlots, size)
	sendHeld(t, la, &hold, txRingSlots, txRingSlots, size)
	recvStamped(t, lb, 0, total, size)
	if s := la.Stats(); s.TxPackets != total || s.TxDrops != 0 {
		t.Errorf("sender stats = %+v", s)
	}
	if refused != 1 || m.segment {
		t.Errorf("%d segmented messages offered, segmentation on after EIO = %v; want 1, false", refused, m.segment)
	}
}
