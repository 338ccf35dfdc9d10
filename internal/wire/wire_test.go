package wire

import (
	"bytes"
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
}

func TestSimLinkMTUDrop(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{MTU: 10}, netsim.LinkConfig{})

	if err := a.Send(make([]byte, 11)); err != ErrTooLarge {
		t.Fatalf("oversize Send = %v, want ErrTooLarge", err)
	}
	if err := a.Send(make([]byte, 10)); err != nil {
		t.Fatalf("at-MTU Send = %v", err)
	}
	e.Run()
	if _, err := b.Recv(); err != nil {
		t.Fatalf("at-MTU datagram not delivered: %v", err)
	}
	if _, err := b.Recv(); err != ErrNoDatagram {
		t.Fatalf("oversize datagram was delivered")
	}
	if got := a.Inner().Stats().Oversize; got != 1 {
		t.Fatalf("netsim Oversize = %d, want 1", got)
	}
	if got := a.Stats().TxDrops; got != 1 {
		t.Fatalf("TxDrops = %d, want 1", got)
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

func TestFragRoundTrip(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{MTU: 200}, netsim.LinkConfig{MTU: 200})
	fa := NewFragLink(a, FragConfig{Now: e.Now})
	fb := NewFragLink(b, FragConfig{Now: e.Now})

	small := bytes.Repeat([]byte("s"), 100)
	big := bytes.Repeat([]byte("B"), 1000)
	if err := fa.Send(small); err != nil {
		t.Fatal(err)
	}
	if err := fa.Send(big); err != nil {
		t.Fatal(err)
	}
	e.Run()
	p, err := fb.Recv()
	if err != nil || !bytes.Equal(p, small) {
		t.Fatalf("small: %v (len %d)", err, len(p))
	}
	p, err = fb.Recv()
	if err != nil || !bytes.Equal(p, big) {
		t.Fatalf("big: %v (len %d)", err, len(p))
	}
	fs := fa.FragStats()
	if fs.FragsTx < 5 {
		t.Fatalf("FragsTx = %d, want >= 5 for 1000B over 200B MTU", fs.FragsTx)
	}
	if got := fb.FragStats().Reassembled; got != 1 {
		t.Fatalf("Reassembled = %d, want 1", got)
	}
}

func TestFragReorderedFragmentsReassemble(t *testing.T) {
	e := netsim.NewEngine(3)
	a, b := NewSimPair(e,
		netsim.LinkConfig{MTU: 256, ReorderProb: 0.5, ReorderDelay: 5 * time.Millisecond, Delay: time.Millisecond},
		netsim.LinkConfig{MTU: 256})
	fa := NewFragLink(a, FragConfig{Now: e.Now})
	fb := NewFragLink(b, FragConfig{Now: e.Now})

	const n = 20
	for i := 0; i < n; i++ {
		if err := fa.Send(bytes.Repeat([]byte{byte(i)}, 900)); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	got := 0
	for {
		p, err := fb.Recv()
		if err != nil {
			break
		}
		if len(p) != 900 {
			t.Fatalf("reassembled %d bytes, want 900", len(p))
		}
		got++
	}
	if got != n {
		t.Fatalf("reassembled %d datagrams, want %d (drops: %+v)", got, n, fb.FragStats())
	}
}

func TestFragDuplicatedFragmentIdempotent(t *testing.T) {
	e := netsim.NewEngine(5)
	a, b := NewSimPair(e,
		netsim.LinkConfig{MTU: 256, DupProb: 0.5},
		netsim.LinkConfig{MTU: 256})
	fa := NewFragLink(a, FragConfig{Now: e.Now})
	fb := NewFragLink(b, FragConfig{Now: e.Now})

	for i := 0; i < 10; i++ {
		if err := fa.Send(bytes.Repeat([]byte{byte(i)}, 700)); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	got := 0
	for {
		if _, err := fb.Recv(); err != nil {
			break
		}
		got++
	}
	fs := fb.FragStats()
	if got != 10 {
		t.Fatalf("delivered %d, want 10: dup fragments must be idempotent, not hostile (%+v)", got, fs)
	}
	if fs.HostileDrops != 0 {
		t.Fatalf("HostileDrops = %d on benign duplication", fs.HostileDrops)
	}
}

// forge delivers raw fragment frames to fb through the engine.
func forge(t *testing.T, e *netsim.Engine, a *SimLink, frames ...[]byte) {
	t.Helper()
	for _, f := range frames {
		a.Inject(f)
	}
	e.Run()
}

func TestFragHostileRejection(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{MTU: 256}, netsim.LinkConfig{MTU: 256})
	fb := NewFragLink(b, FragConfig{Now: e.Now})

	drain := func() int {
		n := 0
		for {
			if _, err := fb.Recv(); err != nil {
				return n
			}
			n++
		}
	}

	// Overlapping fragments with different content (RFC 5722): the whole
	// datagram is condemned, even when the final byte count adds up.
	forge(t, e, a,
		EncodeFrame(1, FragFlagFrag, 100, 0, 256, bytes.Repeat([]byte("A"), 128)),
		EncodeFrame(1, FragFlagFrag, 100, 64, 256, bytes.Repeat([]byte("X"), 128)),
		EncodeFrame(1, FragFlagFrag, 100, 128, 256, bytes.Repeat([]byte("A"), 128)),
	)
	if n := drain(); n != 0 {
		t.Fatalf("overlap: %d datagrams delivered, want 0", n)
	}
	if fs := fb.FragStats(); fs.HostileDrops != 1 {
		t.Fatalf("overlap: HostileDrops = %d, want 1", fs.HostileDrops)
	}

	// Tiny non-final fragment: rejected before it pins state.
	forge(t, e, a,
		EncodeFrame(1, FragFlagFrag, 101, 0, 1024, bytes.Repeat([]byte("t"), 8)),
	)
	if n := drain(); n != 0 {
		t.Fatalf("tiny: %d delivered", n)
	}
	if fs := fb.FragStats(); fs.HostileDrops != 2 {
		t.Fatalf("tiny: HostileDrops = %d, want 2", fs.HostileDrops)
	}

	// Inconsistent totals across one id.
	forge(t, e, a,
		EncodeFrame(1, FragFlagFrag, 102, 0, 512, bytes.Repeat([]byte("c"), 128)),
		EncodeFrame(1, FragFlagFrag, 102, 128, 600, bytes.Repeat([]byte("c"), 128)),
	)
	if n := drain(); n != 0 {
		t.Fatalf("inconsistent: %d delivered", n)
	}
	if fs := fb.FragStats(); fs.HostileDrops != 3 {
		t.Fatalf("inconsistent: HostileDrops = %d, want 3", fs.HostileDrops)
	}

	// Out-of-bounds offset.
	forge(t, e, a,
		EncodeFrame(1, FragFlagFrag, 103, 60000, 1024, bytes.Repeat([]byte("o"), 128)),
	)
	if n := drain(); n != 0 {
		t.Fatalf("oob: %d delivered", n)
	}
	if fs := fb.FragStats(); fs.HostileDrops != 4 {
		t.Fatalf("oob: HostileDrops = %d, want 4", fs.HostileDrops)
	}

	// A poisoned id stays dead: later "completing" fragments of the
	// overlap victim deliver nothing.
	forge(t, e, a,
		EncodeFrame(1, FragFlagFrag, 100, 128, 256, bytes.Repeat([]byte("A"), 128)),
	)
	if n := drain(); n != 0 {
		t.Fatalf("poisoned id delivered %d datagrams", n)
	}

	// The atomic fragment (lone fragment covering its whole total) is
	// legal and delivered, but counted.
	forge(t, e, a,
		EncodeFrame(1, FragFlagFrag, 104, 0, 128, bytes.Repeat([]byte("a"), 128)),
	)
	if n := drain(); n != 1 {
		t.Fatalf("atomic fragment: %d delivered, want 1", n)
	}
	if fs := fb.FragStats(); fs.AtomicFrags != 1 {
		t.Fatalf("AtomicFrags = %d, want 1", fs.AtomicFrags)
	}

	// Garbage that fails the frame magic.
	forge(t, e, a, []byte{0, 0, 0, 9, 0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if n := drain(); n != 0 {
		t.Fatalf("garbage: %d delivered", n)
	}
	if fs := fb.FragStats(); fs.BadFrames == 0 {
		t.Fatalf("BadFrames = 0 after garbage frame")
	}
}

func TestFragReassemblyTimeoutAndMemoryBound(t *testing.T) {
	e := netsim.NewEngine(1)
	a, b := NewSimPair(e, netsim.LinkConfig{MTU: 256}, netsim.LinkConfig{MTU: 256})
	fb := NewFragLink(b, FragConfig{
		Now:                e.Now,
		ReassemblyTimeout:  100 * time.Millisecond,
		MaxReassemblyBytes: 4096,
		MaxPending:         8,
	})

	// Flood with incomplete reassemblies far beyond the memory bound:
	// 64 datagrams x 1024 bytes claimed, one 128-byte fragment each.
	for i := 0; i < 64; i++ {
		a.Inject(EncodeFrame(1, FragFlagFrag, uint32(1000+i), 0, 1024, bytes.Repeat([]byte("f"), 128)))
	}
	e.Run()
	if _, err := fb.Recv(); err != ErrNoDatagram {
		t.Fatalf("incomplete datagrams delivered")
	}
	fs := fb.FragStats()
	if fs.PendingBytes > 4096 {
		t.Fatalf("PendingBytes = %d exceeds the 4096 bound", fs.PendingBytes)
	}
	if fs.EvictDrops == 0 {
		t.Fatalf("flood should have evicted: %+v", fs)
	}

	// Time passes; the stragglers expire.
	e.RunFor(time.Second)
	a.Inject(EncodeFrame(1, 0, 9999, 0, 1, []byte("x"))) // any frame triggers the sweep
	e.Run()
	drainOne(t, fb)
	fs = fb.FragStats()
	if fs.PendingBytes != 0 {
		t.Fatalf("PendingBytes = %d after timeout sweep, want 0", fs.PendingBytes)
	}
	if fs.TimeoutDrops == 0 {
		t.Fatalf("TimeoutDrops = 0 after expiry")
	}
}

func drainOne(t *testing.T, l Link) {
	t.Helper()
	if _, err := l.Recv(); err != nil {
		t.Fatalf("expected one datagram: %v", err)
	}
}

func TestFragPMTUDiscovery(t *testing.T) {
	e := netsim.NewEngine(1)
	// The path carries at most 512 bytes per frame.
	a, b := NewSimPair(e, netsim.LinkConfig{MTU: 512}, netsim.LinkConfig{MTU: 512})
	fa := NewFragLink(a, FragConfig{WireMTU: 1400, Now: e.Now}) // wrong prior
	fb := NewFragLink(b, FragConfig{Now: e.Now})

	// Without discovery, a 1000-byte datagram goes out as one 1013-byte
	// frame and the path drops it.
	if err := fa.Send(bytes.Repeat([]byte("x"), 1000)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := fb.Recv(); err == nil {
		t.Fatalf("frame above path MTU should have been dropped")
	}

	fa.DiscoverPMTU([]int{256, 512, 1024, 1400})
	// Probes above 512 die on the path. Pump each side: fb processes the
	// surviving probes (emitting acks), the engine carries the acks back,
	// fa folds them in.
	e.Run()
	fb.Recv() //nolint:errcheck // drains control frames; ErrNoDatagram expected
	e.Run()
	fa.Recv() //nolint:errcheck
	if got := fa.AdoptPMTU(); got != 512 {
		t.Fatalf("AdoptPMTU = %d, want 512", got)
	}

	// Now the same datagram fragments to fit and arrives.
	if err := fa.Send(bytes.Repeat([]byte("y"), 1000)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	p, err := fb.Recv()
	if err != nil || len(p) != 1000 {
		t.Fatalf("post-discovery delivery: %v (len %d)", err, len(p))
	}
	if fs := fb.FragStats(); fs.ProbesRx == 0 {
		t.Fatalf("no probes observed at the receiver")
	}
	if fs := fa.FragStats(); fs.ProbeAcks == 0 {
		t.Fatalf("no probe acks observed at the prober")
	}
}

func TestSeededDeterminism(t *testing.T) {
	// Same seed ⇒ identical LinkStats and identical impairment decisions:
	// the reproducibility contract the fragment/loss experiments rely on.
	run := func(seed int64) (netsim.LinkStats, FragStats, int) {
		e := netsim.NewEngine(seed)
		a, b := NewSimPair(e,
			netsim.LinkConfig{MTU: 300, LossProb: 0.2, DupProb: 0.1,
				ReorderProb: 0.2, ReorderDelay: 3 * time.Millisecond, Delay: time.Millisecond},
			netsim.LinkConfig{MTU: 300})
		fa := NewFragLink(a, FragConfig{Now: e.Now})
		fb := NewFragLink(b, FragConfig{Now: e.Now})
		for i := 0; i < 300; i++ {
			fa.Send(bytes.Repeat([]byte{byte(i)}, 50+(i*37)%900)) //nolint:errcheck // loss is the point
		}
		e.Run()
		delivered := 0
		for {
			if _, err := fb.Recv(); err != nil {
				break
			}
			delivered++
		}
		return a.Inner().Stats(), fb.FragStats(), delivered
	}

	l1, f1, d1 := run(11)
	l2, f2, d2 := run(11)
	if l1 != l2 {
		t.Fatalf("same seed, different LinkStats:\n%+v\n%+v", l1, l2)
	}
	if f1 != f2 {
		t.Fatalf("same seed, different FragStats:\n%+v\n%+v", f1, f2)
	}
	if d1 != d2 {
		t.Fatalf("same seed, different deliveries: %d vs %d", d1, d2)
	}

	l3, _, _ := run(12)
	if l1 == l3 {
		t.Fatalf("different seeds produced identical LinkStats (suspicious): %+v", l1)
	}
}
