package wire

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"antireplay/internal/netsim"
)

func TestSimPairRoundTrip(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{Delay: time.Millisecond}, netsim.LinkConfig{Delay: time.Millisecond})

	if err := a.Send([]byte("hello")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := b.Recv(); err != ErrNoDatagram {
		t.Fatalf("pre-engine Recv = %v, want ErrNoDatagram", err)
	}
	e.Run()
	p, err := b.Recv()
	if err != nil || string(p) != "hello" {
		t.Fatalf("Recv = %q, %v", p, err)
	}
	if err := b.Send([]byte("yo")); err != nil {
		t.Fatalf("reverse send: %v", err)
	}
	e.Run()
	p, err = a.Recv()
	if err != nil || string(p) != "yo" {
		t.Fatalf("reverse Recv = %q, %v", p, err)
	}
	st := a.Stats()
	if st.TxPackets != 1 || st.RxPackets != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Send has copied the datagram when it returns: a caller that reuses
	// its buffer before the engine delivers does not change what arrives.
	buf := []byte("original")
	if err := a.Send(buf); err != nil {
		t.Fatalf("send: %v", err)
	}
	copy(buf, "CLOBBER!")
	e.Run()
	if p, err = b.Recv(); err != nil || string(p) != "original" {
		t.Fatalf("Recv after the caller reused its buffer = %q, %v; want \"original\"", p, err)
	}
}

func TestSimLinkInlineDelivery(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	var got [][]byte
	b.OnRecv(func(p []byte) { got = append(got, p) })
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if len(got) != 3 {
		t.Fatalf("inline deliveries = %d, want 3", len(got))
	}
	if _, err := b.Recv(); err != ErrNoDatagram {
		t.Fatalf("queue should be bypassed with a handler")
	}
}

func TestSeededDeterminism(t *testing.T) {
	// Same seed ⇒ identical link counters and identical impairment
	// decisions: the same datagrams arrive in the same order. This is the
	// reproducibility contract the loss experiments rely on.
	run := func(seed int64) (Stats, [][]byte) {
		e := netsim.NewEngine(seed)
		a, b := NewSimPair(e,
			netsim.LinkConfig{LossProb: 0.2, DupProb: 0.1,
				ReorderProb: 0.2, ReorderDelay: 3 * time.Millisecond, Delay: time.Millisecond},
			netsim.LinkConfig{})
		for i := 0; i < 300; i++ {
			a.Send(bytes.Repeat([]byte{byte(i)}, 50+(i*37)%900)) //nolint:errcheck // loss is the point
		}
		e.Run()
		var got [][]byte
		for {
			p, err := b.Recv()
			if err != nil {
				break
			}
			got = append(got, p)
		}
		return b.Stats(), got
	}

	s1, g1 := run(11)
	s2, g2 := run(11)
	if s1 != s2 {
		t.Fatalf("same seed, different Stats:\n%+v\n%+v", s1, s2)
	}
	if !slices.EqualFunc(g1, g2, bytes.Equal) {
		t.Fatalf("same seed, different deliveries: %d vs %d datagrams", len(g1), len(g2))
	}
	if len(g1) == 0 || len(g1) == 300 {
		t.Fatalf("impairments not exercised: %d of 300 delivered", len(g1))
	}

	_, g3 := run(12)
	if slices.EqualFunc(g1, g3, bytes.Equal) {
		t.Fatalf("different seeds produced identical deliveries (suspicious)")
	}
}
