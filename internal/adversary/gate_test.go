package adversary

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// espPacket is an 8-byte ESP-shaped datagram: SPI, then the 32-bit
// sequence number, the header every campaign reads.
func espPacket(seq uint64) []byte {
	p := make([]byte, 8)
	putSeq(p, seq)
	return p
}

func putSeq(p []byte, seq uint64) {
	binary.BigEndian.PutUint32(p, 0xC100)
	binary.BigEndian.PutUint32(p[4:], uint32(seq))
}

// sink is the far end of a gate in these tests: it keeps a copy of every
// delivered datagram, in arrival order.
type sink struct {
	mu  sync.Mutex
	got [][]byte
}

func (s *sink) deliver(p []byte) {
	s.mu.Lock()
	s.got = append(s.got, append([]byte(nil), p...))
	s.mu.Unlock()
}

func (s *sink) arrivals() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.got...)
}

func (s *sink) strings() []string {
	var out []string
	for _, p := range s.arrivals() {
		out = append(out, string(p))
	}
	return out
}

func TestGatePassDropHold(t *testing.T) {
	s := &sink{}
	g := NewGate(s.deliver)

	// No decider: everything passes.
	g.Send([]byte("open"))
	// A decider that drops "d*", holds "h*" and passes the rest.
	g.decide = func(p []byte) verdict {
		switch p[0] {
		case 'd':
			return drop
		case 'h':
			return hold
		}
		return pass
	}
	for _, m := range []string{"p1", "d1", "h1", "p2", "h2", "d2"} {
		g.Send([]byte(m))
	}
	if got := s.strings(); len(got) != 3 || got[0] != "open" || got[1] != "p1" || got[2] != "p2" {
		t.Fatalf("delivered %q, want open p1 p2", got)
	}

	// Release in hold order; the held traffic re-enters the path late.
	if n := g.Release(1); n != 1 {
		t.Fatalf("Release(1) = %d", n)
	}
	if n := g.Release(-1); n != 1 {
		t.Fatalf("Release(-1) = %d", n)
	}
	if n := g.Release(-1); n != 0 {
		t.Fatalf("Release(-1) on an empty queue = %d", n)
	}
	if got := s.strings()[3:]; len(got) != 2 || got[0] != "h1" || got[1] != "h2" {
		t.Fatalf("released %q, want h1 h2", got)
	}

	// A held datagram is the gate's copy: the caller reuses its buffer as
	// soon as Send returns, and Release still delivers what was sent.
	g.decide = func([]byte) verdict { return hold }
	buf := []byte("original")
	g.Send(buf)
	copy(buf, "CLOBBER!")
	g.Release(-1)
	if got := s.strings(); got[len(got)-1] != "original" {
		t.Fatalf("released after the caller reused its buffer = %q, want \"original\"", got[len(got)-1])
	}
}

// TestGateDeciderSeesGatedTraffic pins the wiretap power: the decider
// sees every datagram handed to Send, the ones it drops and holds too.
func TestGateDeciderSeesGatedTraffic(t *testing.T) {
	s := &sink{}
	g := NewGate(s.deliver)
	var seen []string
	g.decide = func(p []byte) verdict {
		seen = append(seen, string(p))
		if p[0] == 'h' {
			return hold
		}
		return drop
	}
	sent := []string{"d1", "h1", "d2", "h2", "d3"}
	for _, m := range sent {
		g.Send([]byte(m))
	}
	if len(seen) != len(sent) {
		t.Fatalf("decider saw %q, want every one of %q", seen, sent)
	}
	for i, m := range sent {
		if seen[i] != m {
			t.Fatalf("decider saw %q, want %q in send order", seen, sent)
		}
	}
	if got := s.strings(); len(got) != 0 {
		t.Fatalf("delivered %q past a decider that drops or holds everything", got)
	}
}

func TestGateInjectBypassesDecider(t *testing.T) {
	s := &sink{}
	g := NewGate(s.deliver)
	decided := 0
	g.decide = func([]byte) verdict { decided++; return drop }
	g.Inject([]byte("adversary"))
	if got := s.strings(); len(got) != 1 || got[0] != "adversary" {
		t.Fatalf("injection delivered %q, want it past the dropping decider", got)
	}
	if decided != 0 {
		t.Fatalf("the decider saw %d injections, want 0", decided)
	}
}

// TestGateDeciderReentry pins that the decider runs outside the gate's
// lock: a decider that calls Release and Inject — the campaigns' release-
// on-observe and duplicate-on-observe shapes — must not deadlock Send.
func TestGateDeciderReentry(t *testing.T) {
	s := &sink{}
	g := NewGate(s.deliver)
	g.decide = func(p []byte) verdict {
		if p[0] == 'h' {
			return hold
		}
		g.Release(-1)
		g.Inject(append([]byte("dup-"), p...))
		return pass
	}
	done := make(chan struct{})
	go func() {
		g.Send([]byte("h"))
		g.Send([]byte("x"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send deadlocked: the decider could not re-enter the gate")
	}
	if got := s.strings(); len(got) != 3 || got[0] != "h" || got[1] != "dup-x" || got[2] != "x" {
		t.Fatalf("delivered %q, want the released h, the injected copy, then x", got)
	}
}

const senders, each = 8, 500

// sendConcurrently has senders goroutines put each datagrams through g,
// each reusing one buffer; together they send sequence numbers
// 1..senders*each.
func sendConcurrently(g *Gate) {
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 1; i <= each; i++ {
				putSeq(buf, uint64(w*each+i))
				g.Send(buf)
			}
		}(w)
	}
	wg.Wait()
}

// TestGateConcurrentSenders is the -race check of the gate and its
// decider under concurrent senders that reuse their buffers: every
// datagram is delivered exactly once unless dropped, held ones included.
func TestGateConcurrentSenders(t *testing.T) {
	var mu sync.Mutex
	got := make(map[uint64]int)
	g := NewGate(func(p []byte) {
		seq, _ := espSeq(p)
		mu.Lock()
		got[seq]++
		mu.Unlock()
	})
	dropped := func(seq uint64) bool { return seq%3 == 1 && seq%2 == 0 }
	var held atomic.Uint64
	g.decide = func(p []byte) verdict {
		seq, _ := espSeq(p)
		switch {
		case seq%3 == 0:
			held.Add(1)
			g.Release(1)
			return hold
		case dropped(seq):
			return drop
		}
		return pass
	}
	sendConcurrently(g)
	g.Release(-1)
	if held.Load() == 0 {
		t.Fatal("nothing held")
	}
	for seq := uint64(1); seq <= senders*each; seq++ {
		want := 1
		if dropped(seq) {
			want = 0
		}
		if got[seq] != want {
			t.Fatalf("seq %d delivered %d times, want %d", seq, got[seq], want)
		}
	}
}
