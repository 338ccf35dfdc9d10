package testbed

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
	"antireplay/internal/storefault"
	"antireplay/internal/watchdog"
)

var (
	addrA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	addrB = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

const testSPI = 0x7e57

// newPair builds a pair with one A->B SA installed.
func newPair(t *testing.T, cfg Config) *Pair {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	keys := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
	if err := Install(p.A.GW, p.B.GW, testSPI, keys, addrA, addrB); err != nil {
		t.Fatal(err)
	}
	return p
}

// carry seals and sends n packets, returning how many B delivered.
func carry(t *testing.T, p *Pair, n int) int {
	t.Helper()
	delivered := 0
	for i := 0; i < n; i++ {
		w, err := p.Seal(addrA, addrB, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		_, v, err := p.Send(w)
		if err != nil {
			t.Fatal(err)
		}
		if v.Delivered() {
			delivered++
		}
	}
	return delivered
}

// TestAuditCountsSecondDelivery pins the ledger itself: a unit delivered
// twice is one delivery and one replay, and ReplayAll re-injects every
// tapped wire, oldest first.
func TestAuditCountsSecondDelivery(t *testing.T) {
	var a Audit
	a.Tap([]byte("w1"))
	a.Tap([]byte("w2"))
	if !a.Deliver([]byte("w1")) {
		t.Fatal("first delivery of w1 reported as a replay")
	}
	var order []string
	a.ReplayAll(func(w []byte) {
		order = append(order, string(w))
		a.Deliver(w) // a receiver that accepts everything
	})
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Fatalf("replay order %v, want [w1 w2]", order)
	}
	if a.Sent() != 2 || a.Delivered() != 2 || a.Replays() != 1 {
		t.Fatalf("sent %d delivered %d replays %d, want 2 2 1 (w1 twice, w2 late)",
			a.Sent(), a.Delivered(), a.Replays())
	}
}

// TestReplayAllDeliversNothingTwice: a wire that delivered live and is
// then replayed through ReplayAll stays counted once and is delivered zero
// more times.
func TestReplayAllDeliversNothingTwice(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	p := newPair(t, Config{K: 4, W: 64})
	const n = 40
	if got := carry(t, p, n); got != n {
		t.Fatalf("delivered %d of %d live", got, n)
	}
	if err := p.ReplayAll(); err != nil {
		t.Fatal(err)
	}
	if p.Sent() != n || p.Delivered() != n || p.Replays() != 0 {
		t.Fatalf("after replay: sent %d delivered %d replays %d, want %d %d 0",
			p.Sent(), p.Delivered(), p.Replays(), n, n)
	}
}

// TestSealStalledSaverIsAnError: a sender whose SAVEs never complete (a
// sync follower that never acknowledges) stalls at its durable horizon;
// Seal spends the budget backing off and then fails, wrapping both
// ErrStalled and core.ErrSaveLag and naming the SA. The first Seal runs
// before the follower attaches: it waits for the SA's birth record, which
// such a follower would hold forever (TestFirstSealWaitsForSyncFollower).
func TestSealStalledSaverIsAnError(t *testing.T) {
	watchdog.Arm(t, 6*stallBudget)
	stalls := 0
	p := newPair(t, Config{K: 4, W: 64, OnStall: func(sealing bool) {
		if sealing {
			stalls++
		}
	}})
	if _, err := p.Seal(addrA, addrB, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	j := p.A.Medium.LaneJournals()[0]
	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SyncFollower(tl); err != nil {
		t.Fatal(err)
	}
	// Registered after newPair's cleanup, so it runs first: the gateway's
	// Close must not wait on acks that never come.
	t.Cleanup(tl.Close)

	start := time.Now()
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("sender never reached its durable horizon")
		}
		if _, err = p.Seal(addrA, addrB, []byte("payload")); err != nil {
			break
		}
	}
	took := time.Since(start)
	if !errors.Is(err, core.ErrSaveLag) || !errors.Is(err, ErrStalled) {
		t.Fatalf("Seal error %v, want ErrStalled wrapping ErrSaveLag", err)
	}
	if took < stallBudget || took > 3*stallBudget {
		t.Fatalf("Seal gave up after %v, budget %v", took, stallBudget)
	}
	if stalls == 0 {
		t.Fatal("OnStall never saw a sealing pause")
	}
	t.Logf("after %v and %d pauses: %v", took, stalls, err)
}

// TestSettleWaitsForReceiverSaves: Settle returns once no inbound SA on
// B has a SAVE in flight, and a SAVE that never lands (a sync follower on
// B's medium that never acknowledges) exhausts the budget as ErrStalled.
func TestSettleWaitsForReceiverSaves(t *testing.T) {
	watchdog.Arm(t, 6*stallBudget)
	p := newPair(t, Config{K: 4, W: 64})
	carry(t, p, 10)
	if err := p.Settle(); err != nil {
		t.Fatal(err)
	}
	sa, _ := p.B.GW.SAD().Lookup(testSPI)
	if st := sa.Receiver().Stats(); st.SavesStarted == 0 || st.SavesStarted != st.SavesOK+st.SavesFailed {
		t.Fatalf("settled receiver %+v, want saves started and all finished", st)
	}

	j := p.B.Medium.LaneJournals()[0]
	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SyncFollower(tl); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tl.Close) // runs before newPair's cleanup closes the gateways
	for i := 0; ; i++ {
		if st := sa.Receiver().Stats(); st.SavesStarted != st.SavesOK+st.SavesFailed {
			break
		}
		if i > 8 {
			t.Fatal("receiver never started a SAVE")
		}
		carry(t, p, 1)
	}
	if err := p.Settle(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Settle over a SAVE that never lands: %v, want ErrStalled", err)
	}
}

// TestSettleAfterWakeAll: a wake's own SAVE counts as finished once it
// lands, so Settle on a B that has reset and woken — its inbound SA and an
// outbound one back to A, both past a few background SAVEs — returns at
// once instead of spending the stall budget.
func TestSettleAfterWakeAll(t *testing.T) {
	watchdog.Arm(t, 6*stallBudget)
	p := newPair(t, Config{K: 4, W: 64, Sync: true})
	keys := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
	if err := Install(p.B.GW, p.A.GW, testSPI+1, keys, addrB, addrA); err != nil {
		t.Fatal(err)
	}
	carry(t, p, 10)
	for i := 0; i < 10; i++ {
		if _, err := p.SealOn(p.B, addrB, addrA, []byte("reply")); err != nil {
			t.Fatal(err)
		}
	}
	p.B.GW.ResetAll()
	if err := p.B.GW.WakeAll(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Settle(); err != nil {
		t.Fatalf("Settle after WakeAll: %v", err)
	}
	if took := time.Since(start); took > stallBudget/10 {
		t.Fatalf("Settle after WakeAll took %v, budget %v", took, stallBudget)
	}
	out, _ := p.B.GW.Outbound(testSPI + 1)
	if st := out.Sender().Stats(); st.SavesStarted < 3 || st.SavesStarted != st.SavesOK+st.SavesFailed {
		t.Fatalf("settled sender %+v, want its saves and the wake's all finished", st)
	}
}

// TestFirstSealWaitsForSyncFollower pins where a sync follower that does
// not acknowledge stalls an SA installed before it attached: not at
// AddOutbound, which only staged the birth record, but at the first Seal,
// which waits for that record to be durable — acknowledged by the follower,
// or released by its Close — and then returns the first number.
func TestFirstSealWaitsForSyncFollower(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	for _, release := range []string{"ack", "close"} {
		t.Run(release, func(t *testing.T) {
			p := newPair(t, Config{K: 4, W: 64})
			j := p.A.Medium.LaneJournals()[0]
			tl, err := j.Follow()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tl.Close)
			if err := j.SyncFollower(tl); err != nil {
				t.Fatal(err)
			}
			type sealed struct {
				w   []byte
				err error
			}
			done := make(chan sealed, 1)
			go func() {
				w, err := p.A.GW.Seal(addrA, addrB, []byte("payload"))
				done <- sealed{w, err}
			}()
			select {
			case s := <-done:
				t.Fatalf("first Seal returned before the follower acknowledged the birth: %v", s.err)
			case <-time.After(100 * time.Millisecond):
			}
			if release == "ack" {
				_, next, err := tl.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				tl.Ack(next)
			} else {
				tl.Close()
			}
			s := <-done
			if s.err != nil {
				t.Fatalf("first Seal after the follower's %s: %v", release, s.err)
			}
			if seq, err := ipsec.ParseSeqLo(s.w); err != nil || seq != 1 {
				t.Fatalf("first Seal carried sequence %d (%v), want 1", seq, err)
			}
		})
	}
}

// TestOpenPoisonedLaneReturnsAtOnce: once B's lane is quarantined its SAs
// stall at the durable horizon until repair, so Open reports
// VerdictHorizon without spending any of the budget.
func TestOpenPoisonedLaneReturnsAtOnce(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	in := storefault.NewInjector(nil)
	var poisoned atomic.Int32 // the hook runs on a saver-pool worker
	opening := 0
	p := newPair(t, Config{
		K: 4, W: 64, Lanes: 2,
		LaneOpts: []store.LanesOption{store.LanesWithFS(in)},
		OnPoison: func(int, error) { poisoned.Add(1) },
		OnStall: func(sealing bool) {
			if !sealing {
				opening++
			}
		},
	})
	in.Arm(storefault.Fault{Op: storefault.OpWrite, Err: syscall.EIO})

	// Drive the receiver to its horizon. The first stalled verdicts may
	// arrive while the failing SAVE is still in flight and are retried; a
	// VerdictHorizon that comes back without an error means the lane was
	// found poisoned.
	send := func() core.Verdict {
		t.Helper()
		w, err := p.Seal(addrA, addrB, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		_, v, err := p.Send(w)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i := 0; send() != core.VerdictHorizon; i++ {
		if i > 100 {
			t.Fatal("receiver never reached its durable horizon")
		}
	}
	if p.B.Medium.Cell(ipsec.InboundKey(testSPI)).Poisoned() == nil || poisoned.Load() != 1 {
		t.Fatalf("lane not quarantined (hook fired %d times)", poisoned.Load())
	}
	opening = 0
	start := time.Now()
	if v := send(); v != core.VerdictHorizon {
		t.Fatalf("verdict %v on a quarantined lane, want %v", v, core.VerdictHorizon)
	}
	if took := time.Since(start); opening != 0 || took > stallBudget/2 {
		t.Fatalf("Open paused %d times and took %v on a poisoned lane", opening, took)
	}
	if err := p.ReplayAll(); err != nil || p.Replays() != 0 {
		t.Fatalf("replay on a quarantined lane: %v, %d replays", err, p.Replays())
	}
}

// TestReopenKeepsManifestAndCounters: a rebooted node comes back on the
// lane count its manifest pins, whatever the configuration says by then,
// with every committed counter, and without a gateway.
func TestReopenKeepsManifestAndCounters(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	p := newPair(t, Config{K: 4, W: 64, Lanes: 4})
	if got := carry(t, p, 50); got != 50 {
		t.Fatalf("delivered %d of 50", got)
	}
	want := p.B.Medium.Values()
	if len(want) == 0 {
		t.Fatal("nothing committed before the reboot")
	}
	p.cfg.Lanes = 8
	if err := p.Reopen(p.B); err != nil {
		t.Fatal(err)
	}
	if p.B.GW != nil {
		t.Fatal("rebooted node still has a gateway")
	}
	if n := len(p.B.Medium.LaneJournals()); n != 4 {
		t.Fatalf("reopened on %d lanes, manifest says 4", n)
	}
	got := p.B.Medium.Values()
	if len(got) != len(want) {
		t.Fatalf("reopened with %d counters, had %d", len(got), len(want))
	}
	for key, v := range want {
		if got[key] < v {
			t.Errorf("counter %s came back at %d, was committed at %d", key, got[key], v)
		}
	}
}

// TestPromoteSwapsAuditedReceiver: after a crash and a takeover, Open and
// ReplayAll act on the promoted node, the deposed one is C, and the next
// AddStandby reboots it as the new standby. OnRoles sees every change.
func TestPromoteSwapsAuditedReceiver(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
	const k = 4
	var roles []string
	p := newPair(t, Config{K: k, W: 64, Lanes: 2, OnRoles: func(p *Pair) {
		r := p.A.Name + ">" + p.B.Name
		if p.Standby != nil {
			r += "+standby"
		}
		roles = append(roles, r)
	}})
	if err := p.AddStandby(); err != nil {
		t.Fatal(err)
	}
	if got := carry(t, p, 40); got != 40 {
		t.Fatalf("delivered %d of 40 before the crash", got)
	}
	old := p.B
	old.GW.ResetAll()
	epoch, err := p.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || p.B == old || p.C != old {
		t.Fatalf("epoch %d, B %q, C %q: want epoch 1 and the standby's node swapped in", epoch, p.B.Name, p.C.Name)
	}
	// The deposed node is down: deliveries now can only be the promoted
	// node's, after a wake sacrifice of at most the leap.
	if got := carry(t, p, 40); got < 40-2*k || got == 40 {
		t.Fatalf("promoted node delivered %d of 40, want a sacrifice of 1..%d", got, 2*k)
	}
	if err := p.ReplayAll(); err != nil || p.Replays() != 0 {
		t.Fatalf("replay at the promoted node: %v, %d replays", err, p.Replays())
	}
	if err := p.AddStandby(); err != nil {
		t.Fatal(err)
	}
	if p.C != old || old.GW != nil {
		t.Fatal("failback standby is not the rebooted deposed node")
	}
	if _, err := p.Promote(); err != nil || p.B != old {
		t.Fatalf("failback promotion: %v, B %q", err, p.B.Name)
	}
	want := "[a>b a>b+standby a>c+standby a>c+standby a>b+standby]"
	if got := fmt.Sprint(roles); got != want {
		t.Errorf("OnRoles saw %s, want %s (New, AddStandby, Promote, AddStandby, Promote)", got, want)
	}
}
