package cluster

import (
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

const testK = 10

func testKeys(b byte) ipsec.KeyMaterial {
	k := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
	for i := range k.AuthKey {
		k.AuthKey[i] = b
	}
	return k
}

func testAddr(side byte) netip.Addr { return netip.AddrFrom4([4]byte{10, side, 0, 1}) }

func testSel(rev bool) ipsec.Selector {
	src, dst := testAddr(0), testAddr(1)
	if rev {
		src, dst = dst, src
	}
	return ipsec.Selector{Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32)}
}

func openJournal(t *testing.T, path string) *store.Lanes {
	t.Helper()
	j, err := store.OpenLanes(path, store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// sealRetry seals one payload with ErrSaveLag retry (bounded).
func sealRetry(t *testing.T, gw *ipsec.Gateway, src, dst netip.Addr, payload []byte) []byte {
	t.Helper()
	for tries := 0; ; tries++ {
		w, err := gw.Seal(src, dst, payload)
		if err == nil {
			return w
		}
		if !errors.Is(err, core.ErrSaveLag) || tries > 100000 {
			t.Fatalf("seal: %v", err)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// openRetry opens one wire with VerdictHorizon retry (bounded), returning
// the final verdict.
func openRetry(t *testing.T, gw *ipsec.Gateway, wire []byte) core.Verdict {
	t.Helper()
	for tries := 0; ; tries++ {
		_, v, err := gw.Open(wire)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if v != core.VerdictHorizon || tries > 100000 {
			return v
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// haPair is the standard test topology: peer gateway A (never fails), B-side
// primary over jP, standby over jS replicating jP.
type haPair struct {
	A, B    *ipsec.Gateway
	jA, jP  *store.Lanes
	jS      *store.Lanes
	standby *Standby
	abSPI   uint32
	baSPI   uint32
}

func newHAPair(t *testing.T) *haPair {
	t.Helper()
	dir := t.TempDir()
	h := &haPair{
		jA:    openJournal(t, filepath.Join(dir, "a.log")),
		jP:    openJournal(t, filepath.Join(dir, "primary.log")),
		jS:    openJournal(t, filepath.Join(dir, "standby.log")),
		abSPI: 0x11, baSPI: 0x21,
	}
	t.Cleanup(func() { h.jA.Close(); h.jP.Close(); h.jS.Close() })

	var err error
	if h.A, err = ipsec.NewGateway(ipsec.GatewayConfig{Journal: h.jA, K: testK}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.A.Close() })
	if h.B, err = ipsec.NewGateway(ipsec.GatewayConfig{Journal: h.jP, K: testK}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.B.Close() })

	if _, err := h.A.AddOutbound(h.abSPI, testKeys(1), testSel(false)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.A.AddInbound(h.baSPI, testKeys(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.B.AddInbound(h.abSPI, testKeys(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.B.AddOutbound(h.baSPI, testKeys(2), testSel(true)); err != nil {
		t.Fatal(err)
	}

	if h.standby, err = NewStandby(Config{Source: h.jP, Journal: h.jS, K: testK}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.standby.Stop() })
	if err := h.standby.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.standby.Mirror(h.B.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestStandbyReplicationAndTakeover(t *testing.T) {
	h := newHAPair(t)

	// Bidirectional traffic; keep the A->B history for the replay check.
	var history [][]byte
	delivered := make(map[string]bool)
	for i := 0; i < 150; i++ {
		w := sealRetry(t, h.A, testAddr(0), testAddr(1), []byte(fmt.Sprintf("a->b %d", i)))
		history = append(history, w)
		if v := openRetry(t, h.B, w); v.Delivered() {
			delivered[string(w)] = true
		}
		back := sealRetry(t, h.B, testAddr(1), testAddr(0), []byte(fmt.Sprintf("b->a %d", i)))
		openRetry(t, h.A, back)
	}

	// With a sync follower the replication lag in records can only be the
	// in-flight batch; after the traffic quiesces it drains to zero.
	for i := 0; h.standby.Stats().LagRecords > 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	st := h.standby.Stats()
	if st.AppliedRecords == 0 || st.SnapshotLoads == 0 {
		t.Fatalf("replication idle: %+v", st)
	}

	// Crash the primary and promote.
	bIn, _ := h.B.SAD().Lookup(h.abSPI)
	edgeAtCrash := bIn.Receiver().Edge()
	bOut, _ := h.B.Outbound(h.baSPI)
	usedAtCrash := bOut.Sender().Seq()
	h.B.ResetAll()

	gw2, epoch, err := h.standby.Takeover()
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if epoch != 1 {
		t.Errorf("first takeover epoch = %d, want 1", epoch)
	}

	// Split brain: the deposed primary's journal rejects writes.
	if err := h.jP.Cell(ipsec.InboundKey(h.abSPI)).Save(1 << 30); !errors.Is(err, store.ErrFenced) {
		t.Errorf("deposed journal save = %v, want ErrFenced", err)
	}

	// The promoted inbound edge must clear every sequence number the dead
	// primary ever delivered — that is the zero-replay invariant — and the
	// false-reject window is exactly (wake edge - edge at crash).
	in2, ok := gw2.SAD().Lookup(h.abSPI)
	if !ok {
		t.Fatal("promoted gateway lacks the inbound SA")
	}
	wakeEdge := in2.Receiver().Edge()
	if wakeEdge < edgeAtCrash {
		t.Fatalf("promoted edge %d below the crash edge %d: replays possible", wakeEdge, edgeAtCrash)
	}
	window := wakeEdge - edgeAtCrash

	falseRejects := 0
	deliveredAfter := 0
	for i := 0; deliveredAfter < 50; i++ {
		if i > int(window)+10000 {
			t.Fatalf("traffic never resumed after takeover (%d false rejects)", falseRejects)
		}
		w := sealRetry(t, h.A, testAddr(0), testAddr(1), []byte(fmt.Sprintf("post %d", i)))
		history = append(history, w)
		if v := openRetry(t, gw2, w); v.Delivered() {
			deliveredAfter++
			delivered[string(w)] = true
		} else {
			falseRejects++
		}
	}
	if uint64(falseRejects) > window {
		t.Errorf("false rejects %d exceed the wake window %d", falseRejects, window)
	}

	// The promoted outbound counter must clear every number the dead
	// primary ever used (no reuse), and A must accept its traffic.
	out2, ok := gw2.Outbound(h.baSPI)
	if !ok {
		t.Fatal("promoted gateway lacks the outbound SA")
	}
	if first := out2.Sender().Seq(); first < usedAtCrash {
		t.Fatalf("promoted sender resumes at %d, below the primary's %d", first, usedAtCrash)
	}
	back := sealRetry(t, gw2, testAddr(1), testAddr(0), []byte("resync"))
	if v := openRetry(t, h.A, back); !v.Delivered() {
		t.Fatalf("peer rejected the promoted sender's first packet: %v", v)
	}

	// Replay the full recorded history: nothing already delivered may
	// deliver again.
	replays := 0
	for _, w := range history {
		_, v, _ := gw2.Open(w)
		if v.Delivered() && delivered[string(w)] {
			replays++
		}
	}
	if replays != 0 {
		t.Fatalf("%d replay acceptances across the failover", replays)
	}
}

func TestStandbyRefusesStaleEpochSource(t *testing.T) {
	dir := t.TempDir()
	src := openJournal(t, filepath.Join(dir, "deposed.log"))
	defer src.Close()
	local := openJournal(t, filepath.Join(dir, "promoted.log"))
	defer local.Close()

	// The local journal has lived under epoch 3; the source never took
	// over (epoch 0) — it is a deposed primary and must be refused.
	if err := local.Cell(EpochKey).Save(3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStandby(Config{Source: src, Journal: local, K: testK}); !errors.Is(err, ErrFenced) {
		t.Fatalf("NewStandby on stale source = %v, want ErrFenced", err)
	}

	// An up-to-date source (same or newer epoch) attaches fine.
	if err := src.Cell(EpochKey).Save(3); err != nil {
		t.Fatal(err)
	}
	s, err := NewStandby(Config{Source: src, Journal: local, K: testK})
	if err != nil {
		t.Fatalf("NewStandby on current source: %v", err)
	}
	s.Stop()
}

func TestDoubleFailoverFailbackNoCounterRegression(t *testing.T) {
	h := newHAPair(t)
	dir := filepath.Dir(h.jP.Path())

	var history [][]byte
	delivered := make(map[string]bool)
	pump := func(gw *ipsec.Gateway, n int, tag string) {
		for i := 0; i < n; i++ {
			w := sealRetry(t, h.A, testAddr(0), testAddr(1), []byte(fmt.Sprintf("%s %d", tag, i)))
			history = append(history, w)
			if v := openRetry(t, gw, w); v.Delivered() {
				delivered[string(w)] = true
			}
		}
	}

	pump(h.B, 80, "phase1")

	// Failover 1: node1 dies, node2 takes over at epoch 1.
	h.B.ResetAll()
	gw2, epoch1, err := h.standby.Takeover()
	if err != nil {
		t.Fatal(err)
	}
	pump(gw2, 80, "phase2")
	out2, _ := gw2.Outbound(h.baSPI)
	used2 := out2.Sender().Seq()

	// Node1 "reboots": its old gateway and fenced journal handle close, the
	// journal reopens from disk, and the node re-syncs as a standby of the
	// new primary — the failback path.
	h.B.Close()
	if err := h.jP.Close(); err != nil {
		t.Fatal(err)
	}
	jP2, err := store.OpenLanes(filepath.Join(dir, "primary.log"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer jP2.Close()
	sb2, err := NewStandby(Config{Source: h.jS, Journal: jP2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer sb2.Stop()
	if err := sb2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sb2.Mirror(gw2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	pump(gw2, 40, "phase3")

	// Failover 2: fail back to the original node at epoch 2.
	gw2.ResetAll()
	gw3, epoch2, err := sb2.Takeover()
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 <= epoch1 {
		t.Fatalf("failback epoch %d not above first takeover epoch %d", epoch2, epoch1)
	}

	// No counter regression: the failback sender must clear every number
	// node2 ever used, even though node1's journal held stale state.
	out3, ok := gw3.Outbound(h.baSPI)
	if !ok {
		t.Fatal("failback gateway lacks the outbound SA")
	}
	if first := out3.Sender().Seq(); first < used2 {
		t.Fatalf("failback sender resumes at %d, below node2's %d", first, used2)
	}
	back := sealRetry(t, gw3, testAddr(1), testAddr(0), []byte("failback"))
	if v := openRetry(t, h.A, back); !v.Delivered() {
		t.Fatalf("peer rejected the failback sender's first packet: %v", v)
	}

	// And after the double failover, replaying all history re-delivers
	// nothing.
	pump(gw3, 40, "phase4")
	replays := 0
	for _, w := range history {
		_, v, _ := gw3.Open(w)
		if v.Delivered() && delivered[string(w)] {
			replays++
		}
	}
	if replays != 0 {
		t.Fatalf("%d replay acceptances across double failover", replays)
	}
}

func TestTakeoverRefusedAfterStreamFailure(t *testing.T) {
	dir := t.TempDir()
	src := openJournal(t, filepath.Join(dir, "src.log"))
	defer src.Close()
	local := openJournal(t, filepath.Join(dir, "local.log"))
	defer local.Close()

	s, err := NewStandby(Config{Source: src, Journal: local, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if _, _, err := s.Takeover(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("takeover before start = %v, want ErrNotRunning", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Takeover(); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if _, _, err := s.Takeover(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("second takeover = %v, want ErrPromoted", err)
	}
	if err := s.Mirror(ipsec.GatewaySnapshot{}); !errors.Is(err, ErrPromoted) {
		t.Fatalf("mirror after takeover = %v, want ErrPromoted", err)
	}
}
