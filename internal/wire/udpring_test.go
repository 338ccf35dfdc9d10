//go:build sockets

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
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
	p := buf[:n]
	binary.BigEndian.PutUint32(p, spi)
	binary.BigEndian.PutUint64(p[4:], uint64(i))
	for j := 12; j < n; j++ {
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
