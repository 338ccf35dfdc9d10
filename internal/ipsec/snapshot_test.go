package ipsec

import (
	"errors"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

func snapTestKeys(b byte) KeyMaterial {
	k := KeyMaterial{AuthKey: make([]byte, AuthKeySize)}
	for i := range k.AuthKey {
		k.AuthKey[i] = b
	}
	return k
}

func snapTestSelector(i int) Selector {
	a := netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})
	b := netip.AddrFrom4([4]byte{10, 0, 1, byte(i)})
	return Selector{Src: netip.PrefixFrom(a, 32), Dst: netip.PrefixFrom(b, 32)}
}

func TestGatewaySnapshotCapturesPopulation(t *testing.T) {
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), "gw.log"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	gw, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	if _, err := gw.AddOutbound(0x11, snapTestKeys(1), snapTestSelector(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.AddInbound(0x21, snapTestKeys(2)); err != nil {
		t.Fatal(err)
	}
	// A rekeyed outbound SA: the successor carries lineage, the old SA
	// drains.
	if _, err := gw.RekeyOutbound(0x11, 0x12, snapTestKeys(3)); err != nil {
		t.Fatal(err)
	}

	snap := gw.Snapshot()
	if len(snap.Outbound) != 2 || len(snap.Inbound) != 1 {
		t.Fatalf("snapshot has %d outbound / %d inbound, want 2/1",
			len(snap.Outbound), len(snap.Inbound))
	}
	bySPI := make(map[uint32]OutboundSnapshot)
	for _, ob := range snap.Outbound {
		bySPI[ob.SPI] = ob
	}
	old, nu := bySPI[0x11], bySPI[0x12]
	if !old.Draining || old.Generation != 0 {
		t.Errorf("old SA snapshot = %+v, want draining generation 0", old)
	}
	if nu.Draining || nu.Generation != 1 || nu.PrevSPI != 0x11 {
		t.Errorf("successor snapshot = %+v, want gen 1 prev 0x11", nu)
	}
	if len(nu.Selectors) != 1 || nu.Selectors[0] != snapTestSelector(1) {
		t.Errorf("successor selectors = %v, want the rekeyed-over entry", nu.Selectors)
	}
	if len(old.Selectors) != 0 {
		t.Errorf("old SA still owns selectors %v after cutover", old.Selectors)
	}
	// Keys are deep copies, not aliases.
	snap.Inbound[0].Keys.AuthKey[0] ^= 0xff
	if gw.Snapshot().Inbound[0].Keys.AuthKey[0] == snap.Inbound[0].Keys.AuthKey[0] {
		t.Error("snapshot keys alias live SA key material")
	}
}

func TestGatewayAdoptBuildsDownImageAndWakes(t *testing.T) {
	dir := t.TempDir()
	jp, err := store.OpenLanes(filepath.Join(dir, "primary.log"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer jp.Close()
	jf, err := store.OpenLanes(filepath.Join(dir, "follower.log"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()

	primary, err := NewGateway(GatewayConfig{Journal: jp, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sel := snapTestSelector(1)
	out, err := primary.AddOutbound(0x11, snapTestKeys(1), sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.AddInbound(0x21, snapTestKeys(2)); err != nil {
		t.Fatal(err)
	}
	// Advance the outbound counter so the journal holds real state, then
	// "replicate" the journal to the follower wholesale.
	for i := 0; i < 40; i++ {
		for {
			_, err := out.Seal([]byte("x"))
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrSaveLag) {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Microsecond) // background save catching up
		}
	}
	var recs []store.TailRecord
	for k, v := range jp.Values() {
		recs = append(recs, store.TailRecord{Key: k, Val: v})
	}
	if err := jf.LaneJournals()[0].Apply(recs); err != nil {
		t.Fatal(err)
	}

	standby, err := NewGateway(GatewayConfig{Journal: jf, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if err := standby.Adopt(primary.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// The image is warm but down: nothing seals, nothing admits.
	adopted, ok := standby.Outbound(0x11)
	if !ok {
		t.Fatal("adopted outbound SA missing")
	}
	if st := adopted.Sender().State(); st != core.StateDown {
		t.Fatalf("adopted sender state = %v, want down", st)
	}
	if _, err := standby.Seal(sel.Src.Addr(), sel.Dst.Addr(), []byte("x")); err == nil {
		t.Fatal("standby image sealed a packet while down")
	}
	in, ok := standby.SAD().Lookup(0x21)
	if !ok {
		t.Fatal("adopted inbound SA missing")
	}
	if st := in.Receiver().State(); st != core.StateDown {
		t.Fatalf("adopted receiver state = %v, want down", st)
	}

	// Re-adopting is a no-op.
	if err := standby.Adopt(primary.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// Takeover-as-wake-up: WakeAll leaps every adopted SA from its
	// replicated counter, so the first sealed sequence number clears every
	// number the primary ever used.
	if err := standby.WakeAll(); err != nil {
		t.Fatal(err)
	}
	used := out.Sender().Seq() // primary's next unused number
	first := adopted.Sender().Seq()
	if first < used {
		t.Fatalf("adopted sender resumes at %d, below the primary's %d", first, used)
	}
	if _, err := standby.Seal(sel.Src.Addr(), sel.Dst.Addr(), []byte("x")); err != nil {
		t.Fatalf("promoted standby seal: %v", err)
	}
}

func TestGatewayAdoptForgetsWithoutTombstone(t *testing.T) {
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), "gw.log"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	gw, err := NewGateway(GatewayConfig{Journal: j, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	snap := GatewaySnapshot{
		Inbound: []InboundSnapshot{{SPI: 0x21, Keys: snapTestKeys(2)}},
	}
	if err := gw.Adopt(snap); err != nil {
		t.Fatal(err)
	}
	// Simulate the replication stream having delivered a counter for the
	// adopted cell.
	if err := j.LaneJournals()[0].Apply([]store.TailRecord{{Key: InboundKey(0x21), Val: 500}}); err != nil {
		t.Fatal(err)
	}
	// The SA leaves the population: the claim is released but the cell's
	// replicated value must survive — the stream, not the mirror, owns it.
	if err := gw.Adopt(GatewaySnapshot{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := gw.SAD().Lookup(0x21); ok {
		t.Fatal("forgotten SA still registered")
	}
	if v, ok, _ := j.Cell(InboundKey(0x21)).Fetch(); !ok || v != 500 {
		t.Fatalf("cell after forget = %d,%v, want 500,true (no tombstone)", v, ok)
	}
	// And the released claim can be re-taken (re-adoption after a revert).
	if err := gw.Adopt(snap); err != nil {
		t.Fatalf("re-adopt after forget: %v", err)
	}
}
