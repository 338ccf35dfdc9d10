package ipsec

import (
	"bytes"
	"errors"
	"net/netip"
	"slices"
	"testing"

	"antireplay/internal/core"
)

// testKeys2 is a second key set so old- and new-generation traffic cannot
// cross-authenticate.
func testKeys2() KeyMaterial {
	return KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0xC3}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0xD4}, EncKeySize),
	}
}

// TestGatewayRekeyOutboundCutover: after RekeyOutbound, gateway traffic for
// the selector flows on the new SPI, the old handle refuses new seals, and
// the lineage links are recorded.
func TestGatewayRekeyOutboundCutover(t *testing.T) {
	g, _ := testGateway(t)
	defer g.Close()
	src, dst := gwAddr(1)
	old, err := g.AddOutbound(0x100, testKeys(), gwSelector(1))
	if err != nil {
		t.Fatalf("AddOutbound: %v", err)
	}
	if _, err := g.Seal(src, dst, []byte("gen0")); err != nil {
		t.Fatalf("Seal gen0: %v", err)
	}

	nu, err := g.RekeyOutbound(0x100, 0x200, testKeys2())
	if err != nil {
		t.Fatalf("RekeyOutbound: %v", err)
	}
	if nu.Generation() != 1 || nu.PrevSPI() != 0x100 {
		t.Errorf("lineage = (gen %d, prev %#x), want (1, 0x100)", nu.Generation(), nu.PrevSPI())
	}
	wire := gwSeal(t, g, src, dst, []byte("gen1"))
	spi, _ := ParseSPI(wire)
	if spi != 0x200 {
		t.Errorf("post-cutover Seal used SPI %#x, want 0x200", spi)
	}
	if _, err := old.Seal([]byte("stale")); !errors.Is(err, ErrDraining) {
		t.Errorf("Seal on drained SA = %v, want ErrDraining", err)
	}
	if !old.Draining() || nu.Draining() {
		t.Errorf("Draining: old %v new %v, want true false", old.Draining(), nu.Draining())
	}
}

// TestGatewayRekeyInboundOverlap: during the drain window both generations
// verify; after RemoveInbound the old SPI is unknown.
func TestGatewayRekeyInboundOverlap(t *testing.T) {
	g, _ := testGateway(t)
	defer g.Close()
	src, dst := gwAddr(2)
	if _, err := g.AddOutbound(0x101, testKeys(), gwSelector(2)); err != nil {
		t.Fatalf("AddOutbound: %v", err)
	}
	oldIn, err := g.AddInbound(0x101, testKeys())
	if err != nil {
		t.Fatalf("AddInbound: %v", err)
	}
	inflight := gwSeal(t, g, src, dst, []byte("in flight"))

	newIn, err := g.RekeyInbound(0x101, 0x201, testKeys2())
	if err != nil {
		t.Fatalf("RekeyInbound: %v", err)
	}
	if newIn.Generation() != 1 || newIn.PrevSPI() != 0x101 {
		t.Errorf("lineage = (gen %d, prev %#x), want (1, 0x101)", newIn.Generation(), newIn.PrevSPI())
	}
	// The make step must NOT mark the old SA draining — the rollover can
	// still be rolled back; the orchestrator marks it after the cutover.
	if oldIn.Draining() {
		t.Error("RekeyInbound prematurely marked the old SA draining")
	}
	oldIn.BeginDrain() // what the orchestrator does once the cutover commits
	// The drain window's whole point: the in-flight old-SPI packet still
	// verifies after the successor is installed.
	payload, verdict := gwOpen(t, g, inflight)
	if string(payload) != "in flight" || !verdict.Delivered() {
		t.Fatalf("in-flight old-SPI packet = (%q, %v), want delivered", payload, verdict)
	}

	if !g.RemoveInbound(0x101) {
		t.Fatal("RemoveInbound reported missing SA")
	}
	if _, _, err := g.Open(inflight); !errors.Is(err, ErrUnknownSPI) {
		t.Errorf("Open after retirement = %v, want ErrUnknownSPI", err)
	}
}

// TestGatewayRemoveReAddFreshLife is the counter-resurrection regression
// test: removing an SA must erase its journal counter so re-adding the same
// SPI starts a fresh life instead of resuming (and leaping past) the
// retired one.
func TestGatewayRemoveReAddFreshLife(t *testing.T) {
	g, _ := testGateway(t)
	defer g.Close()
	src, dst := gwAddr(3)
	out, err := g.AddOutbound(0x300, testKeys(), gwSelector(3))
	if err != nil {
		t.Fatalf("AddOutbound: %v", err)
	}
	in, err := g.AddInbound(0x300, testKeys())
	if err != nil {
		t.Fatalf("AddInbound: %v", err)
	}
	// Advance both counters well past a fresh life's values and let the
	// SAVE interval persist them.
	for i := 0; i < 64; i++ {
		wire := gwSeal(t, g, src, dst, []byte("traffic"))
		gwOpen(t, g, wire)
	}
	if seq := out.Sender().Seq(); seq < 32 {
		t.Fatalf("sender counter %d advanced too little for the test to bite", seq)
	}
	if edge := in.Receiver().Edge(); edge < 32 {
		t.Fatalf("receiver edge %d advanced too little for the test to bite", edge)
	}

	if !g.RemoveOutbound(0x300) || !g.RemoveInbound(0x300) {
		t.Fatal("Remove* reported missing SA")
	}
	if _, ok, _ := g.Journal().Cell(OutboundKey(0x300)).Fetch(); ok {
		t.Error("outbound counter survived removal")
	}
	if _, ok, _ := g.Journal().Cell(InboundKey(0x300)).Fetch(); ok {
		t.Error("inbound edge survived removal")
	}

	// Re-add the SPI: fresh life — sender at 1, receiver edge at 0, and a
	// seq-1 packet (impossible against a resurrected window) delivers.
	out2, err := g.AddOutbound(0x300, testKeys2(), gwSelector(3))
	if err != nil {
		t.Fatalf("re-AddOutbound: %v", err)
	}
	in2, err := g.AddInbound(0x300, testKeys2())
	if err != nil {
		t.Fatalf("re-AddInbound: %v", err)
	}
	if s := out2.Sender().State(); s != core.StateUp {
		t.Fatalf("re-added sender state %v, want up (no prior journal life)", s)
	}
	if seq := out2.Sender().Seq(); seq != 1 {
		t.Errorf("re-added sender starts at %d, want 1", seq)
	}
	if edge := in2.Receiver().Edge(); edge != 0 {
		t.Errorf("re-added receiver edge %d, want 0", edge)
	}
	wire := gwSeal(t, g, src, dst, []byte("fresh life"))
	payload, verdict := gwOpen(t, g, wire)
	if string(payload) != "fresh life" || !verdict.Delivered() {
		t.Errorf("fresh-life packet = (%q, %v), want delivered", payload, verdict)
	}
}

// TestGatewayRevertOutbound: the rollback of a half-committed cutover —
// the old SA resumes sealing under its original SPD entries and the
// successor leaves no SPI or journal residue behind.
func TestGatewayRevertOutbound(t *testing.T) {
	g, _ := testGateway(t)
	defer g.Close()
	src, dst := gwAddr(4)
	old, err := g.AddOutbound(0x400, testKeys(), gwSelector(4))
	if err != nil {
		t.Fatalf("AddOutbound: %v", err)
	}
	if _, err := g.RekeyOutbound(0x400, 0x500, testKeys2()); err != nil {
		t.Fatalf("RekeyOutbound: %v", err)
	}
	if !g.RevertOutbound(0x400, 0x500) {
		t.Fatal("RevertOutbound reported missing SAs")
	}
	if old.Draining() {
		t.Error("old SA still draining after revert")
	}
	wire := gwSeal(t, g, src, dst, []byte("back on the old generation"))
	if spi, _ := ParseSPI(wire); spi != 0x400 {
		t.Errorf("post-revert Seal used SPI %#x, want 0x400", spi)
	}
	if _, ok := g.Outbound(0x500); ok {
		t.Error("aborted successor still registered")
	}
	if _, ok, _ := g.Journal().Cell(OutboundKey(0x500)).Fetch(); ok {
		t.Error("aborted successor's journal cell survived")
	}
	// A later retry can reuse the aborted successor's SPI from scratch.
	if _, err := g.RekeyOutbound(0x400, 0x500, testKeys2()); err != nil {
		t.Fatalf("retry RekeyOutbound after revert: %v", err)
	}
}

// TestSPDReplaceAndRemove exercises the policy-database halves of the
// cutover directly: Replace repoints an SA's entries in place, Remove
// tombstones them, and the index, the ordered scan, Len, Range and the
// rebuild all agree with first-match-wins over the live entries.
func TestSPDReplaceAndRemove(t *testing.T) {
	p := NewSPD()
	mkSA := func(spi uint32) *OutboundSA {
		snd, m := newSenderT(t, 5)
		_ = m
		sa, err := NewOutboundSA(spi, testKeys(), snd, false, Lifetime{}, nil)
		if err != nil {
			t.Fatalf("NewOutboundSA: %v", err)
		}
		return sa
	}
	a, b := mkSA(1), mkSA(2)
	p.Add(gwSelector(1), a)
	p.Add(gwSelector(2), b)

	src, dst := gwAddr(1)
	if got, _ := p.Lookup(src, dst); got != a {
		t.Fatal("pre-replace lookup missed")
	}
	c := mkSA(3)
	if n := p.Replace(a, c); n != 1 {
		t.Errorf("Replace repointed %d entries, want 1", n)
	}
	if got, _ := p.Lookup(src, dst); got == nil || got.SPI() != 3 {
		t.Error("post-replace lookup did not find the successor")
	}
	if n := p.Remove(a); n != 0 {
		t.Errorf("Remove of the replaced SA removed %d entries, want 0", n)
	}
	if n := p.Remove(c); n != 1 {
		t.Errorf("Remove removed %d entries, want 1", n)
	}
	if _, ok := p.Lookup(src, dst); ok {
		t.Error("removed entry still matches")
	}
	if src2, dst2 := gwAddr(2); true {
		if got, _ := p.Lookup(src2, dst2); got != b {
			t.Error("unrelated entry lost by Remove")
		}
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}

	// policy lists the live entries in order, as Range yields them.
	policy := func(p *SPD) []PolicySnapshot {
		var out []PolicySnapshot
		p.Range(func(sel Selector, sa *OutboundSA) bool {
			out = append(out, PolicySnapshot{Selector: sel, SPI: sa.SPI()})
			return true
		})
		if len(out) != p.Len() {
			t.Errorf("Range yields %d entries, Len says %d", len(out), p.Len())
		}
		return out
	}
	sa := func(spi uint32) *OutboundSA { return &OutboundSA{saBase: saBase{spi: spi}} }

	t.Run("duplicate host routes", func(t *testing.T) {
		p := NewSPD()
		first, second := sa(1), sa(2)
		p.Add(gwSelector(5), first)
		p.Add(gwSelector(6), sa(3))
		p.Add(gwSelector(5), second)
		src, dst := gwAddr(5)
		if got, _ := p.Lookup(src, dst); got != first {
			t.Fatalf("Lookup = %p, want the first of two duplicates", got)
		}
		p.Remove(first)
		if got, _ := p.Lookup(src, dst); got != second {
			t.Fatalf("after removing the first duplicate, Lookup = %p, want the second", got)
		}
		p.Remove(second)
		if got, ok := p.Lookup(src, dst); ok {
			t.Fatalf("after removing both duplicates, Lookup = %p", got)
		}
		third := sa(4)
		p.Add(gwSelector(5), third)
		if got, _ := p.Lookup(src, dst); got != third {
			t.Fatalf("a pair re-added after its entries died: Lookup = %p, want the new SA", got)
		}
	})

	t.Run("last non-host selector", func(t *testing.T) {
		p := NewSPD()
		broad, host := sa(1), sa(2)
		p.Add(Selector{Src: netip.MustParsePrefix("10.0.0.0/8"), Dst: netip.MustParsePrefix("10.1.0.0/16")}, broad)
		p.Add(gwSelector(1), host)
		src, dst := gwAddr(1)
		if got, _ := p.Lookup(src, dst); got != broad || !p.view().scanAll {
			t.Fatalf("Lookup = %p on a scanning view (%v), want the broad first match", got, p.view().scanAll)
		}
		p.Remove(broad)
		if v := p.view(); v.scanAll || v.index == nil {
			t.Fatalf("after the only non-host selector went: scanAll %v, index %p; want lookups back on the index", v.scanAll, v.index)
		}
		if got, _ := p.Lookup(src, dst); got != host {
			t.Fatalf("Lookup = %p, want the host route", got)
		}
	})

	t.Run("Len and Range skip removed entries", func(t *testing.T) {
		p := NewSPD()
		sas := make([]*OutboundSA, 8)
		for i := range sas {
			sas[i] = sa(uint32(i + 1))
			p.Add(gwSelector(i), sas[i])
		}
		p.Remove(sas[2])
		p.Remove(sas[5])
		var want []PolicySnapshot
		for i := range sas {
			if i != 2 && i != 5 {
				want = append(want, PolicySnapshot{Selector: gwSelector(i), SPI: uint32(i + 1)})
			}
		}
		if got := policy(p); !slices.Equal(got, want) {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	})

	t.Run("rebuild keeps order and chains", func(t *testing.T) {
		// SA i holds routes i and 1000+i, and every fourth SA also the
		// duplicate of route 0, added behind the others; all but every
		// fifth SA go, which rebuilds the entries at least once.
		const n = 200
		p := NewSPD()
		sas := make([]*OutboundSA, n)
		for i := range sas {
			sas[i] = sa(uint32(i + 1))
			p.Add(gwSelector(i), sas[i])
		}
		for i := range sas {
			p.Add(gwSelector(1000+i), sas[i])
		}
		for i := 0; i < n; i += 4 {
			p.Add(gwSelector(0), sas[i])
		}
		removed := 0
		for i := range sas {
			if i%5 != 0 {
				got, want := p.Remove(sas[i]), 2+btoi(i%4 == 0)
				if got != want {
					t.Fatalf("Remove(SA %d) = %d entries, want %d", i, got, want)
				}
				removed += got
			}
		}
		if p.dead == removed {
			t.Fatalf("no rebuild after %d of %d entries died", removed, 2*n+n/4)
		}
		var want []PolicySnapshot
		for _, route := range []int{0, 1000} {
			for i := 0; i < n; i += 5 {
				want = append(want, PolicySnapshot{Selector: gwSelector(route + i), SPI: uint32(i + 1)})
			}
		}
		for i := 0; i < n; i += 20 {
			want = append(want, PolicySnapshot{Selector: gwSelector(0), SPI: uint32(i + 1)})
		}
		if got := policy(p); !slices.Equal(got, want) {
			t.Fatalf("after the rebuild Range = %v, want %v", got, want)
		}
		src, dst := gwAddr(0)
		if got, _ := p.Lookup(src, dst); got != sas[0] {
			t.Fatalf("Lookup(route 0) = %p, want SA 0, its first live entry", got)
		}
		// Every chain survived the renumbering: a successor takes all of
		// its predecessor's entries, and a removal takes all of them out.
		for i := 0; i < n; i += 5 {
			next := sa(uint32(n + i + 1))
			if got, want := p.Replace(sas[i], next), 2+btoi(i%20 == 0); got != want {
				t.Fatalf("Replace(SA %d) = %d entries, want %d", i, got, want)
			}
			src, dst := gwAddr(1000 + i)
			if got, _ := p.Lookup(src, dst); got != next {
				t.Fatalf("route %d: Lookup = %p after the rekey, want the successor", 1000+i, got)
			}
			if i > 0 {
				if got, want := p.Remove(next), 2+btoi(i%20 == 0); got != want {
					t.Fatalf("Remove(successor of SA %d) = %d entries, want %d", i, got, want)
				}
			}
		}
		if p.Len() != 3 {
			t.Fatalf("Len = %d, want SA 0's successor's three entries", p.Len())
		}
	})

	t.Run("Replace after the entries grow", func(t *testing.T) {
		p := NewSPD()
		old := sa(1)
		p.Add(gwSelector(0), old)
		first := p.view()
		for i := 1; i < 100; i++ {
			p.Add(gwSelector(i), sa(uint32(i+1)))
		}
		p.Add(gwSelector(100), old)
		if len(p.view().entries) <= len(first.entries) {
			t.Fatalf("entries did not grow: %d, first %d", len(p.view().entries), len(first.entries))
		}
		next := sa(1000)
		if n := p.Replace(old, next); n != 2 {
			t.Fatalf("Replace = %d entries, want 2", n)
		}
		for _, route := range []int{0, 100} {
			if got, _ := p.Lookup(gwAddr(route)); got != next {
				t.Fatalf("route %d: Lookup = %p, want the successor", route, got)
			}
		}
	})
}

// btoi is 1 for true, 0 for false.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
