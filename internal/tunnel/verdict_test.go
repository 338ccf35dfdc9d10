package tunnel

import (
	"fmt"
	"testing"

	"antireplay/internal/adversary"
	"antireplay/internal/core"
	"antireplay/internal/netsim"
	"antireplay/internal/wire"
)

// TestOnVerdictUnderSnipe splices a window-edge snipe campaign into a
// real peer pair's wire and measures the attack at the OnVerdict hook:
// every injected edge-adjacent duplicate must surface as a
// VerdictDuplicate discard (zero replay acceptance), every original must
// deliver exactly once, and the verdict counts must reconcile with the
// campaign's own books.
func TestOnVerdictUnderSnipe(t *testing.T) {
	e := netsim.NewEngine(31)
	la, lb := wire.NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	gate := wire.NewGateLink(la)

	var atB []string
	verdicts := map[core.Verdict]int{}
	a, b, err := Pair(
		Config{Name: "a", K: 25},
		Config{Name: "b", K: 25, W: 128,
			OnData:    func(p []byte) { atB = append(atB, string(p)) },
			OnVerdict: func(v core.Verdict) { verdicts[v]++ },
		},
		ikeCfg(41, "a"), ikeCfg(42, "b"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetTransport(func(w []byte) { gate.Send(w) }) //nolint:errcheck // fire-and-forget
	lb.OnRecv(func(w []byte) { b.Receive(w) })      //nolint:errcheck // verdicts observed through OnVerdict

	// ESPSeq reads the cleartext sequence number straight off the sealed
	// datagrams a hands to the gate — the campaign sees only wire bytes.
	snipe := NewSnipe(t, gate)
	snipe.Activate()

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snipe.Deactivate()
	e.Run()

	if len(atB) != n {
		t.Fatalf("delivered %d payloads, want %d (W=128 > HoldDepth=96: holds arrive late, not lost)", len(atB), n)
	}
	seen := map[string]bool{}
	for _, m := range atB {
		if seen[m] {
			t.Fatalf("payload %q delivered twice", m)
		}
		seen[m] = true
	}

	st := snipe.Stats()
	if st.DupsInjected == 0 || st.Held == 0 {
		t.Fatalf("campaign idle: %+v", st)
	}
	delivered := verdicts[core.VerdictNew] + verdicts[core.VerdictInWindow]
	if delivered != n {
		t.Errorf("delivering verdicts = %d, want %d", delivered, n)
	}
	if got := verdicts[core.VerdictDuplicate]; uint64(got) != st.DupsInjected {
		t.Errorf("VerdictDuplicate = %d, want %d (every injected dup rejected)", got, st.DupsInjected)
	}
	if got := verdicts[core.VerdictStale]; got != 0 {
		t.Errorf("VerdictStale = %d, want 0 at W=128", got)
	}
}

// NewSnipe builds the shared snipe for the verdict tests: hold 1 in 8 by
// 96 packets, duplicate 1 in 10.
func NewSnipe(t *testing.T, gate *wire.GateLink) *adversary.WindowEdgeSnipe {
	t.Helper()
	c := adversary.NewWindowEdgeSnipe(adversary.SnipeConfig{
		HoldEvery: 8, HoldDepth: 96, DupEvery: 10,
	})
	if err := c.Arm(adversary.Hooks{Gate: gate}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOnVerdictNarrowWindow prices the defense knob the other way: the
// same snipe against W=64 < HoldDepth=96 loses every matured hostage —
// goodput lost with zero wire drops. (With ESN enabled the deep-late
// packets are not even VerdictStale: the receiver infers them into the
// next 2^32 epoch and the ICV check rejects them, RFC 4303 Appendix A —
// so the loss shows up as missing deliveries, not stale verdicts.)
func TestOnVerdictNarrowWindow(t *testing.T) {
	e := netsim.NewEngine(32)
	la, lb := wire.NewSimPair(e, netsim.LinkConfig{}, netsim.LinkConfig{})
	gate := wire.NewGateLink(la)

	var atB int
	verdicts := map[core.Verdict]int{}
	a, b, err := Pair(
		Config{Name: "a", K: 25},
		Config{Name: "b", K: 25, W: 64,
			OnData:    func([]byte) { atB++ },
			OnVerdict: func(v core.Verdict) { verdicts[v]++ },
		},
		ikeCfg(43, "a"), ikeCfg(44, "b"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetTransport(func(w []byte) { gate.Send(w) }) //nolint:errcheck // fire-and-forget
	lb.OnRecv(func(w []byte) { b.Receive(w) })      //nolint:errcheck // verdicts observed through OnVerdict

	snipe := NewSnipe(t, gate)
	snipe.Activate()
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	snipe.Deactivate()
	e.Run()

	if atB >= n {
		t.Fatalf("W=64: delivered %d of %d; snipe should cost goodput (verdicts %v)", atB, n, verdicts)
	}
	st := snipe.Stats()
	if st.Held == 0 || st.Held != st.Released {
		t.Fatalf("hostage books don't balance: %+v", st)
	}
	// Every payload that went missing was a hostage the narrow window
	// could no longer place; nothing else on the path drops.
	if lost := n - atB; uint64(lost) > st.Held {
		t.Errorf("lost %d > hostages %d", lost, st.Held)
	}
	if delivered := verdicts[core.VerdictNew] + verdicts[core.VerdictInWindow]; delivered != atB {
		t.Errorf("delivering verdicts = %d, OnData saw %d", delivered, atB)
	}
}
