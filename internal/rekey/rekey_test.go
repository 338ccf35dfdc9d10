package rekey

import (
	"errors"
	"math/rand"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

var (
	addrA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	addrB = netip.AddrFrom4([4]byte{10, 0, 0, 2})
	selAB = ipsec.Selector{Src: netip.PrefixFrom(addrA, 32), Dst: netip.PrefixFrom(addrB, 32)}
	selBA = ipsec.Selector{Src: netip.PrefixFrom(addrB, 32), Dst: netip.PrefixFrom(addrA, 32)}
)

func ikeCfg(seed int64, id string) ike.Config {
	return ike.Config{
		PSK:   []byte("orchestrator-psk"),
		Rand:  rand.New(rand.NewSource(seed)),
		Group: ike.TestGroup(),
		ID:    id,
	}
}

func gatewayT(t *testing.T, name string, life ipsec.Lifetime) *ipsec.Gateway {
	t.Helper()
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), name+".journal"), store.LanesCount(1))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	g, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: j, K: 5, W: 64, Lifetime: life})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// pairT builds two gateways joined by one IKE-established tunnel and an
// orchestrator tracking it.
func pairT(t *testing.T, life ipsec.Lifetime, cfg Config) (*ipsec.Gateway, *ipsec.Gateway, *Orchestrator, *Tunnel) {
	t.Helper()
	A := gatewayT(t, "a", life)
	B := gatewayT(t, "b", life)
	res, err := ike.Establish(ikeCfg(1, "a"), ikeCfg(2, "b"))
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	k := res.Keys
	if _, err := A.AddOutbound(k.SPIInitToResp, k.InitToResp, selAB); err != nil {
		t.Fatalf("A.AddOutbound: %v", err)
	}
	if _, err := A.AddInbound(k.SPIRespToInit, k.RespToInit); err != nil {
		t.Fatalf("A.AddInbound: %v", err)
	}
	if _, err := B.AddInbound(k.SPIInitToResp, k.InitToResp); err != nil {
		t.Fatalf("B.AddInbound: %v", err)
	}
	if _, err := B.AddOutbound(k.SPIRespToInit, k.RespToInit, selBA); err != nil {
		t.Fatalf("B.AddOutbound: %v", err)
	}
	cfg.A, cfg.B = A, B
	if cfg.Exchange == nil {
		cfg.IKEInit = ikeCfg(3, "a")
		cfg.IKEResp = ikeCfg(4, "b")
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tun, err := o.Track(k.SPIInitToResp, k.SPIRespToInit)
	if err != nil {
		t.Fatalf("Track: %v", err)
	}
	return A, B, o, tun
}

// sealAB seals one payload A->B through the gateway with ErrSaveLag retry.
func sealAB(t *testing.T, A *ipsec.Gateway, payload []byte) []byte {
	t.Helper()
	for i := 0; i < 10000; i++ {
		wire, err := A.Seal(addrA, addrB, payload)
		if err == nil {
			return wire
		}
		if !errors.Is(err, core.ErrSaveLag) {
			t.Fatalf("Seal: %v", err)
		}
		time.Sleep(20 * time.Microsecond)
	}
	t.Fatal("Seal: ErrSaveLag never cleared")
	return nil
}

// openB opens a wire at B with horizon retry.
func openB(t *testing.T, B *ipsec.Gateway, wire []byte) ([]byte, core.Verdict, error) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		payload, verdict, err := B.Open(wire)
		if verdict != core.VerdictHorizon {
			return payload, verdict, err
		}
		time.Sleep(20 * time.Microsecond)
	}
	t.Fatal("Open: VerdictHorizon never cleared")
	return nil, 0, nil
}

func TestRolloverMakeBeforeBreak(t *testing.T) {
	A, B, o, tun := pairT(t, ipsec.Lifetime{}, Config{})
	oldAB, oldBA := tun.SPIs()

	// Traffic on generation 0, plus one in-flight packet the rollover must
	// not strand, and a replay set the successor must not accept.
	var history [][]byte
	for i := 0; i < 20; i++ {
		wire := sealAB(t, A, []byte("gen0"))
		history = append(history, wire)
		if _, verdict, err := openB(t, B, wire); err != nil || !verdict.Delivered() {
			t.Fatalf("gen0 delivery %d = (%v, %v)", i, verdict, err)
		}
	}
	inflight := sealAB(t, A, []byte("in flight across the cutover"))

	if err := o.Rollover(tun); err != nil {
		t.Fatalf("Rollover: %v", err)
	}
	newAB, newBA := tun.SPIs()
	if newAB == oldAB || newBA == oldBA {
		t.Fatalf("rollover kept an old SPI: %#x %#x -> %#x %#x", oldAB, oldBA, newAB, newBA)
	}
	if tun.State() != StateDraining {
		t.Fatalf("state = %v, want draining", tun.State())
	}

	// New traffic runs on the successor.
	wire := sealAB(t, A, []byte("gen1"))
	if spi, _ := ipsec.ParseSPI(wire); spi != newAB {
		t.Errorf("post-cutover SPI %#x, want %#x", spi, newAB)
	}
	if _, verdict, err := openB(t, B, wire); err != nil || !verdict.Delivered() {
		t.Fatalf("gen1 delivery = (%v, %v)", verdict, err)
	}

	// The in-flight old-SPI packet still verifies during the drain.
	payload, verdict, err := openB(t, B, inflight)
	if err != nil || !verdict.Delivered() || string(payload) != "in flight across the cutover" {
		t.Fatalf("in-flight packet = (%q, %v, %v), want delivered", payload, verdict, err)
	}

	// Replays of generation 0 are rejected, not re-accepted by a confused
	// successor window.
	for _, w := range history {
		if _, verdict, _ := openB(t, B, w); verdict.Delivered() {
			t.Fatal("old-generation replay delivered during drain")
		}
	}

	// Grace 0: the next Poll retires the old generation and tombstones its
	// journal cells.
	if err := o.Poll(); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if tun.State() != StateSteady {
		t.Fatalf("state after retire = %v, want steady", tun.State())
	}
	if _, ok, _ := A.Journal().Cell(ipsec.OutboundKey(oldAB)).Fetch(); ok {
		t.Error("A's old outbound counter survived retirement")
	}
	if _, ok, _ := B.Journal().Cell(ipsec.InboundKey(oldAB)).Fetch(); ok {
		t.Error("B's old inbound edge survived retirement")
	}
	if _, _, err := B.Open(inflight); !errors.Is(err, ipsec.ErrUnknownSPI) {
		t.Errorf("old SPI after retirement: %v, want ErrUnknownSPI", err)
	}
	st := o.Stats()
	if st.Rollovers != 1 || st.Retired != 1 {
		t.Errorf("stats = %+v, want 1 rollover, 1 retired", st)
	}
	if tun.Generation() != 1 {
		t.Errorf("generation = %d, want 1", tun.Generation())
	}
}

func TestSoftLifetimeTriggersRollover(t *testing.T) {
	// ~6 packets of 64-byte payloads trip the soft bound; hard bound far out.
	A, B, o, tun := pairT(t, ipsec.Lifetime{SoftBytes: 512, HardBytes: 1 << 20}, Config{})
	if err := o.Poll(); err != nil {
		t.Fatalf("Poll before soft: %v", err)
	}
	if got := o.Stats().SoftTriggers; got != 0 {
		t.Fatalf("premature soft trigger (%d)", got)
	}
	payload := make([]byte, 64)
	for i := 0; i < 10; i++ {
		wire := sealAB(t, A, payload)
		openB(t, B, wire)
	}
	if err := o.Poll(); err != nil {
		t.Fatalf("Poll at soft: %v", err)
	}
	st := o.Stats()
	if st.SoftTriggers != 1 || st.Rollovers != 1 {
		t.Fatalf("stats = %+v, want 1 soft trigger and 1 rollover", st)
	}
	if tun.State() != StateDraining {
		t.Fatalf("state = %v, want draining", tun.State())
	}
	// The successor has a fresh lifetime budget: no immediate re-trigger
	// (the draining state also guards against one).
	if err := o.Poll(); err != nil {
		t.Fatalf("Poll after rollover: %v", err)
	}
	if got := o.Stats().Rollovers; got != 1 {
		t.Errorf("rollovers = %d, want 1 (no churn)", got)
	}
}

func TestExchangeFailureRetriesAndAbandons(t *testing.T) {
	fails := 2
	var calls int
	init, resp := ikeCfg(30, "a"), ikeCfg(31, "b")
	cfg := Config{
		MaxAttempts: 3,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			calls++
			if calls <= fails {
				return ike.ChildKeys{}, errors.New("message lost")
			}
			res, err := ike.RekeyChild(init, resp, oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			return res.Keys, nil
		},
	}
	A, B, o, tun := pairT(t, ipsec.Lifetime{SoftBytes: 1}, cfg)
	// One packet trips the 1-byte soft bound.
	openB(t, B, sealAB(t, A, []byte("x")))

	for i := 0; i < 3 && tun.State() == StateSteady; i++ {
		o.Poll() //nolint:errcheck // exchange failures are the point
	}
	st := o.Stats()
	if st.ExchangeFailures != 2 || st.Rollovers != 1 {
		t.Fatalf("stats = %+v, want 2 failures then 1 rollover", st)
	}

	// A permanently failing exchange is abandoned after MaxAttempts.
	calls, fails = 0, 1<<30
	o.Poll() // retire the drained generation (Grace 0)
	if tun.State() != StateSteady {
		t.Fatalf("state = %v, want steady", tun.State())
	}
	openB(t, B, sealAB(t, A, []byte("y"))) // trip the successor's soft bound
	for i := 0; i < 3; i++ {
		o.Poll() //nolint:errcheck
	}
	if got := o.Stats().Abandoned; got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
}

// TestRolloverRecoversFromBCutoverFailure forces the worst partial-failure
// point — B's outbound cutover failing after A's already succeeded (here, a
// successor SPI colliding with a claimed journal cell on B) — and asserts
// the rollover unwinds completely: the tunnel stays steady on the old
// generation, A's traffic keeps flowing on the old SPI (the revert
// repointed the SPD back and un-drained the old SA), and a retry with
// fresh SPIs succeeds.
func TestRolloverRecoversFromBCutoverFailure(t *testing.T) {
	const blocked = uint32(0xBADBAD)
	calls := 0
	init, resp := ikeCfg(60, "a"), ikeCfg(61, "b")
	cfg := Config{
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			calls++
			res, err := ike.RekeyChild(init, resp, oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			k := res.Keys
			if calls == 1 {
				k.SPIRespToInit = blocked // collides with the claim below
			}
			return k, nil
		},
	}
	A, B, o, tun := pairT(t, ipsec.Lifetime{}, cfg)
	if _, err := B.Journal().ClaimCell(ipsec.OutboundKey(blocked)); err != nil {
		t.Fatalf("ClaimCell: %v", err)
	}
	oldAB, oldBA := tun.SPIs()
	oldOutA, _ := A.Outbound(oldAB)

	if err := o.Rollover(tun); err == nil {
		t.Fatal("Rollover succeeded despite the blocked successor SPI")
	}
	if tun.State() != StateSteady {
		t.Fatalf("state after failed rollover = %v, want steady", tun.State())
	}
	if ab, ba := tun.SPIs(); ab != oldAB || ba != oldBA {
		t.Fatalf("SPIs changed across a failed rollover: %#x/%#x", ab, ba)
	}
	if oldOutA.Draining() {
		t.Error("old outbound SA left draining by the unwind")
	}
	// Traffic still flows on the old generation, through the old SPI.
	wire := sealAB(t, A, []byte("still generation 0"))
	if spi, _ := ipsec.ParseSPI(wire); spi != oldAB {
		t.Errorf("post-unwind SPI %#x, want old %#x", spi, oldAB)
	}
	if _, verdict, err := openB(t, B, wire); err != nil || !verdict.Delivered() {
		t.Fatalf("post-unwind delivery = (%v, %v)", verdict, err)
	}
	// No successor residue on either gateway.
	if _, ok := A.SAD().Lookup(blocked); ok {
		t.Error("aborted successor inbound survived on A")
	}

	// The retry (fresh SPIs) succeeds end to end.
	if err := o.Rollover(tun); err != nil {
		t.Fatalf("retry Rollover: %v", err)
	}
	newAB, _ := tun.SPIs()
	wire = sealAB(t, A, []byte("generation 1"))
	if spi, _ := ipsec.ParseSPI(wire); spi != newAB {
		t.Errorf("post-retry SPI %#x, want %#x", spi, newAB)
	}
	if _, verdict, err := openB(t, B, wire); err != nil || !verdict.Delivered() {
		t.Fatalf("post-retry delivery = (%v, %v)", verdict, err)
	}
}

// TestRolloverWithResetMidExchange injects a full receiver-gateway reset
// between the rekey exchange's two messages: the rollover must still
// converge, in-flight old-SPI packets sealed after the wake must deliver,
// and no recorded packet may be re-accepted afterwards.
func TestRolloverWithResetMidExchange(t *testing.T) {
	init, resp := ikeCfg(40, "a"), ikeCfg(41, "b")
	var (
		A, B     *ipsec.Gateway
		inflight [][]byte
	)
	cfg := Config{
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			ini, err := ike.NewRekeyInitiator(init, oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			rsp, err := ike.NewRekeyResponder(resp, oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			m1, err := ini.Request()
			if err != nil {
				return ike.ChildKeys{}, err
			}
			// The reset strikes the responder gateway between the two
			// handshake messages.
			B.ResetAll()
			B.WakeAll() //nolint:errcheck // wake errors surface as exchange failures
			// The paper's receiver-reset cost: the wake leap marks the
			// whole window received, sacrificing up to 2K fresh messages
			// until the sender's counter passes the leaped edge. Flush
			// that window — its discards are the protocol's documented
			// price, not a rekey defect.
			for i := 0; i < 16; i++ { // > 2K (K=5) sacrificial packets
				openB(t, B, sealAB(t, A, []byte("sacrifice")))
			}
			// Traffic does not stop for a rekey: these packets are sealed
			// on the OLD SPI after B's recovery but before the cutover —
			// exactly the in-flight traffic the drain window exists for.
			for i := 0; i < 5; i++ {
				inflight = append(inflight, sealAB(t, A, []byte("in flight")))
			}
			m2, err := rsp.HandleRequest(m1)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if err := ini.HandleResponse(m2); err != nil {
				return ike.ChildKeys{}, err
			}
			return ini.ChildKeys(), nil
		},
	}
	a, b, o, tun := pairT(t, ipsec.Lifetime{}, cfg)
	A, B = a, b
	oldAB, _ := tun.SPIs()

	var history [][]byte
	for i := 0; i < 30; i++ {
		wire := sealAB(t, A, []byte("pre-reset"))
		history = append(history, wire)
		openB(t, B, wire)
	}

	if err := o.Rollover(tun); err != nil {
		t.Fatalf("Rollover across reset: %v", err)
	}

	// Zero false rejections: every in-flight old-SPI packet delivers
	// during the drain window.
	for i, w := range inflight {
		if spi, _ := ipsec.ParseSPI(w); spi != oldAB {
			t.Fatalf("in-flight packet %d sealed on %#x, want old SPI %#x", i, spi, oldAB)
		}
		payload, verdict, err := openB(t, B, w)
		if err != nil || !verdict.Delivered() || string(payload) != "in flight" {
			t.Fatalf("in-flight packet %d = (%q, %v, %v), want delivered", i, payload, verdict, err)
		}
	}
	// The successor carries fresh traffic.
	for i := 0; i < 5; i++ {
		wire := sealAB(t, A, []byte("post-rollover"))
		_, verdict, err := openB(t, B, wire)
		if err != nil || !verdict.Delivered() {
			t.Fatalf("post-rollover delivery %d = (%v, %v)", i, verdict, err)
		}
	}
	// Zero replay acceptances: nothing recorded before or during the
	// reset+rollover is re-accepted.
	replays := 0
	for _, w := range append(append([][]byte{}, history...), inflight...) {
		if _, verdict, _ := openB(t, B, w); verdict.Delivered() {
			replays++
		}
	}
	if replays != 0 {
		t.Fatalf("%d replays accepted after reset + rollover, want 0", replays)
	}
}
