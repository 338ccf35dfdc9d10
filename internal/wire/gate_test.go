package wire

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/netsim"
)

func TestGateLinkPassDropHold(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	g := NewGateLink(a)

	// Open gate: everything passes.
	if err := g.Send([]byte("open")); err != nil {
		t.Fatal(err)
	}
	// Programmed gate: drop "d*", hold "h*", pass the rest.
	g.SetGate(func(p []byte) GateVerdict {
		switch p[0] {
		case 'd':
			return GateDrop
		case 'h':
			return GateHold
		}
		return GatePass
	})
	for _, m := range []string{"p1", "d1", "h1", "p2", "h2", "d2"} {
		if err := g.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	got := map[string]bool{}
	for {
		p, err := b.Recv()
		if err != nil {
			break
		}
		got[string(p)] = true
	}
	for _, want := range []string{"open", "p1", "p2"} {
		if !got[want] {
			t.Fatalf("passed datagram %q not delivered (got %v)", want, got)
		}
	}
	for _, blocked := range []string{"d1", "d2", "h1", "h2"} {
		if got[blocked] {
			t.Fatalf("gated datagram %q delivered", blocked)
		}
	}
	if n := g.HeldCount(); n != 2 {
		t.Fatalf("HeldCount = %d, want 2", n)
	}

	// Release in hold order; the held traffic re-enters the path late.
	if n := g.Release(1); n != 1 {
		t.Fatalf("Release(1) = %d", n)
	}
	if n := g.Release(-1); n != 1 {
		t.Fatalf("Release(-1) = %d", n)
	}
	e.Run()
	p, err := b.Recv()
	if err != nil || string(p) != "h1" {
		t.Fatalf("first release = %q, %v, want h1", p, err)
	}
	p, err = b.Recv()
	if err != nil || string(p) != "h2" {
		t.Fatalf("second release = %q, %v, want h2", p, err)
	}

	st := g.GateStats()
	if st.Passed != 3 || st.Dropped != 2 || st.Held != 2 || st.Released != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// A held datagram is the gate's copy: the caller reuses its buffer as
	// soon as Send returns, and Release still delivers what was sent.
	g.SetGate(func([]byte) GateVerdict { return GateHold })
	buf := []byte("original")
	if err := g.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	g.Release(-1)
	e.Run()
	if p, err = b.Recv(); err != nil || string(p) != "original" {
		t.Fatalf("released after the caller reused its buffer = %q, %v; want \"original\"", p, err)
	}
}

func TestGateLinkTapSeesGatedTraffic(t *testing.T) {
	e := netsim.NewEngine(1)
	a, _ := NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	g := NewGateLink(a)
	g.SetGate(func([]byte) GateVerdict { return GateDrop })
	var seen int
	g.Tap(func([]byte) { seen++ })
	for i := 0; i < 5; i++ {
		if err := g.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 5 {
		t.Fatalf("wiretap saw %d, want 5 (taps precede the gate)", seen)
	}
}

func TestGateLinkInjectBypassesGateAndImpairment(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{LossProb: 1.0}, netsim.LinkConfig{})
	g := NewGateLink(a)
	g.SetGate(func([]byte) GateVerdict { return GateDrop })
	var tapped int
	g.Tap(func([]byte) { tapped++ })

	g.Inject([]byte("adversary"))
	e.Run()
	p, err := b.Recv()
	if err != nil || string(p) != "adversary" {
		t.Fatalf("injection = %q, %v (must bypass gate AND the 100%% loss below)", p, err)
	}
	if tapped != 0 {
		t.Fatalf("injection must bypass the wiretap")
	}
}

// TestGateLinkCloseDiscardsHeld pins that Close does not transmit held
// datagrams (a torn-down campaign must not leak its hostages).
func TestGateLinkCloseDiscardsHeld(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	g := NewGateLink(a)
	g.SetGate(func([]byte) GateVerdict { return GateHold })
	if err := g.Send([]byte("hostage")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := b.Recv(); err == nil {
		t.Fatal("held datagram transmitted by Close")
	}
	if st := g.GateStats(); st.HeldDropped != 1 {
		t.Fatalf("HeldDropped = %d, want 1", st.HeldDropped)
	}
}

// TestGateTapInjectReentry is the regression test for the tap->inject
// deadlock: a link that invokes tap callbacks while holding its mutex
// deadlocks the datapath as soon as a tap calls Inject (which takes the
// same mutex — exactly the campaign layer's duplicate-on-observe shape).
// Taps and the gate function itself run outside the lock, so both may call
// Inject and Release.
func TestGateTapInjectReentry(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	g := NewGateLink(a)
	g.Tap(func(p []byte) { g.Inject(append([]byte("tap-"), p...)) })
	g.SetGate(func(p []byte) GateVerdict {
		g.Release(-1) // gate callbacks may drive the gate itself
		return GatePass
	})
	done := make(chan error, 1)
	go func() { done <- g.Send([]byte("x")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send deadlocked: gate callback could not re-enter the link")
	}
	e.Run()
	n := 0
	for {
		if _, err := b.Recv(); err != nil {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("delivered %d datagrams, want passed original + injected copy", n)
	}
}

// TestGateTapRegistrationRace is the -race regression for registering a
// wiretap while traffic flows: the campaign layer arms taps on live links
// from its own goroutine. Send must snapshot the tap list under the lock,
// and a tap registered before Send starts must observe it.
func TestGateTapRegistrationRace(t *testing.T) {
	e := netsim.NewEngine(1)
	a, _ := NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	g := NewGateLink(a)

	stop := make(chan struct{})
	var observed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.Tap(func([]byte) { observed.Add(1) })
		}
	}()
	for i := 0; i < 512; i++ {
		if err := g.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// A tap registered after the dust settles sees subsequent traffic.
	seen := 0
	g.Tap(func([]byte) { seen++ })
	if err := g.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("late tap saw %d sends, want 1", seen)
	}
}
