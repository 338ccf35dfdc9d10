package ipsec

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"sync"
	"sync/atomic"
)

// Both databases index with one scheme: an open-addressed table of
// atomically published slots, probed linearly from the slot named by the
// top bits of a 64-bit hash. A reader loads the table once, then the slots
// of one probe run, each with an atomic load, and takes no lock. A writer,
// serialized by its database's mutex, fills one slot in place, so an Add
// costs a probe run and a store however many entries the table holds. An
// insert that would fill a table past its maximum load copies the live
// entries into a fresh table, twice the size (the same size when tombstones
// are most of the use), and publishes it with one atomic store. A reader
// still on the old table misses only the adds made since, as a reader of a
// copy-on-write snapshot would. The copy is O(n) once per doubling, O(1)
// amortized per Add.
//
// The maximum loads are lower than the 3/4 or 7/8 a hash map runs at,
// because a linear-probing run grows steeply with the load a: a successful
// search inspects (1 + 1/(1-a))/2 slots on average (2.5 at 3/4, 1.5 at
// 1/2), and the longest run of a table of random keys far more. The SPD,
// keyed by configuration, runs at most half full; the SAD, whose SPIs are
// random and whose slots are 8 bytes, a quarter: at 16k random SPIs its
// longest lookup then reads about 13 slots, where half load reads 20 to 50
// (TestSADProbeLengths, TestSPDProbeLengths).
const minTableSlots = 8

// mix64 is a multiply-xorshift finalizer: every input bit reaches the top
// bits a table index is taken from, so sequential SPIs and host pairs that
// differ only in their low octets spread like random keys.
func mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return x * 0xd6e8feb86659fd93
}

// tableShift is the right shift that turns a hash into a slot index for a
// table of n slots, n a power of two.
func tableShift(n int) uint8 { return uint8(64 - bits.TrailingZeros(uint(n))) }

// sadTable is one generation of the SAD's index. A slot is empty (nil),
// holds an SA, or holds sadTombstone where an SA was deleted: a tombstone
// keeps the probe runs through it unbroken until the next rebuild.
type sadTable struct {
	slots []atomic.Pointer[InboundSA]
	shift uint8
}

func newSADTable(n int) *sadTable {
	return &sadTable{slots: make([]atomic.Pointer[InboundSA], n), shift: tableShift(n)}
}

// sadTombstone marks a deleted slot; no lookup ever returns it.
var sadTombstone = new(InboundSA)

// SAD is the security association database: inbound SAs keyed by SPI, in the
// open-addressed table described at minTableSlots. The per-packet Lookup is
// wait-free: one atomic table load, then one atomic load a slot along the
// probe run. Add and Delete change one slot in place under a writer mutex;
// at a quarter full Add republishes the table at twice the size. The hash is
// keyed by a random seed per database, so a sender who reads SPIs off the
// wire cannot aim forged SPIs at a long probe run. Safe for concurrent use.
type SAD struct {
	tab  atomic.Pointer[sadTable] // always non-nil
	live atomic.Int64             // registered SAs
	seed uint64

	mu   sync.Mutex // serializes writers
	used int        // slots of tab holding an SA or a tombstone; under mu
}

// NewSAD returns an empty database.
func NewSAD() *SAD {
	d := &SAD{seed: rand.Uint64()}
	d.tab.Store(newSADTable(minTableSlots))
	return d
}

// home returns the first slot of spi's probe run in t.
func (d *SAD) home(t *sadTable, spi uint32) uint64 {
	return mix64(uint64(spi)^d.seed) >> t.shift
}

// find returns spi's slot in t and the SA it holds, or a nil SA.
func (d *SAD) find(t *sadTable, spi uint32) (*atomic.Pointer[InboundSA], *InboundSA) {
	mask := uint64(len(t.slots) - 1)
	for i := d.home(t, spi); ; i = (i + 1) & mask {
		sa := t.slots[i].Load()
		if sa == nil || sa.spi == spi && sa != sadTombstone {
			return &t.slots[i], sa
		}
	}
}

// Add registers sa, replacing any SA with the same SPI.
func (d *SAD) Add(sa *InboundSA) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tab.Load()
	mask := uint64(len(t.slots) - 1)
	tomb := -1 // the run's first tombstone: where an absent SPI goes
	for i := d.home(t, sa.spi); ; i = (i + 1) & mask {
		switch cur := t.slots[i].Load(); {
		case cur == nil:
			switch {
			case tomb >= 0:
				t.slots[tomb].Store(sa)
			case d.used < len(t.slots)/4:
				t.slots[i].Store(sa)
				d.used++
			default:
				d.rebuild(t, sa)
			}
			d.live.Add(1)
			return
		case cur == sadTombstone:
			if tomb < 0 {
				tomb = int(i)
			}
		case cur.spi == sa.spi:
			t.slots[i].Store(sa)
			return
		}
	}
}

// rebuild publishes a fresh table holding t's SAs and sa, without
// tombstones: twice t's size, or t's size while the SAs fill at most an
// eighth of it. Either way the new table is at most an eighth full, so an
// eighth of its slots fill before the next rebuild.
func (d *SAD) rebuild(t *sadTable, sa *InboundSA) {
	n := len(t.slots)
	if 8*(d.live.Load()+1) > int64(n) {
		n *= 2
	}
	nt := newSADTable(n)
	d.used = 0
	place := func(sa *InboundSA) {
		slot, _ := d.find(nt, sa.spi)
		slot.Store(sa)
		d.used++
	}
	for i := range t.slots {
		if cur := t.slots[i].Load(); cur != nil && cur != sadTombstone {
			place(cur)
		}
	}
	place(sa)
	d.tab.Store(nt)
}

// Delete removes the SA with the given SPI, reporting whether it existed.
// Its slot becomes a tombstone; nothing is copied.
func (d *SAD) Delete(spi uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, sa := d.find(d.tab.Load(), spi)
	if sa == nil {
		return false
	}
	slot.Store(sadTombstone)
	d.live.Add(-1)
	return true
}

// Lookup returns the SA for spi. It is wait-free: one atomic table load and
// the probe run's atomic slot loads, safe against any concurrent Add/Delete.
func (d *SAD) Lookup(spi uint32) (*InboundSA, bool) {
	_, sa := d.find(d.tab.Load(), spi)
	return sa, sa != nil
}

// Len returns the number of registered SAs.
func (d *SAD) Len() int { return int(d.live.Load()) }

// Range calls fn for each registered SA until fn returns false. The
// iteration walks the published table without blocking writers; SAs added
// or deleted concurrently may or may not be observed.
func (d *SAD) Range(fn func(*InboundSA) bool) {
	t := d.tab.Load()
	for i := range t.slots {
		if sa := t.slots[i].Load(); sa != nil && sa != sadTombstone && !fn(sa) {
			return
		}
	}
}

// Selector matches traffic by source and destination prefix, after the
// SPD selectors of RFC 4301 (ports and protocol omitted).
type Selector struct {
	Src netip.Prefix
	Dst netip.Prefix
}

// Matches reports whether the selector covers the (src, dst) pair.
func (s Selector) Matches(src, dst netip.Addr) bool {
	return s.Src.Contains(src) && s.Dst.Contains(dst)
}

// spdView is an immutable snapshot of the policy database: the ordered
// entry list plus the host-route index derived from it. Lookup consumes a
// view with one atomic load. Add publishes a new view over the same index,
// filled in place (see minTableSlots); Replace and Remove publish a view
// with a freshly built index, so a reader never observes a repointed entry
// beside a stale route.
type spdView struct {
	entries []spdEntry
	index   *spdTable // host routes; nil while empty and while scanAll
	scanAll bool      // a non-host selector exists; the ordered scan decides
}

// SPD is the security policy database: an ordered list of selectors mapping
// outbound traffic to SAs (first match wins). Host-route selectors (both
// prefixes single-address, the common shape on a tunnel concentrator) are
// also indexed by (src, dst) in an open-addressed table; while every entry
// is a host route, Lookup is O(1) instead of a linear selector scan. One
// non-host selector falls Lookup back to the ordered scan, preserving
// first-match-wins exactly. Reads are wait-free against an atomically
// published view; see spdView. Safe for concurrent use.
type SPD struct {
	mu  sync.Mutex // serializes writers
	cur atomic.Pointer[spdView]
}

type spdEntry struct {
	sel Selector
	sa  *OutboundSA
}

type hostPair struct {
	src, dst netip.Addr
}

// spdSlot is one slot of an spdTable. pair is written once, before sa is
// published by an atomic store, and read only after a non-nil sa is
// loaded, so a reader never sees a half-written key. There is no delete in
// place, and so no tombstone: Replace and Remove build a new table.
type spdSlot struct {
	pair hostPair
	sa   atomic.Pointer[OutboundSA]
}

// spdTable is the SPD's host-route index, keyed inline so that a hit reads
// one slot.
type spdTable struct {
	slots []spdSlot
	shift uint8
	used  int // filled slots; written only under the SPD's writer mutex
}

// newSPDTable returns an empty index sized for routes host routes.
func newSPDTable(routes int) *spdTable {
	n := minTableSlots
	for n < 2*routes {
		n *= 2
	}
	return &spdTable{slots: make([]spdSlot, n), shift: tableShift(n)}
}

// hashPair hashes a host pair. An IPv4 pair packs into one word; any other
// pair folds its two 16-byte forms through mix64 a word at a time.
func hashPair(src, dst netip.Addr) uint64 {
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		return mix64(uint64(binary.BigEndian.Uint32(s[:]))<<32 | uint64(binary.BigEndian.Uint32(d[:])))
	}
	s, d := src.As16(), dst.As16()
	h := mix64(binary.BigEndian.Uint64(s[:8]))
	h = mix64(h ^ binary.BigEndian.Uint64(s[8:]))
	h = mix64(h ^ binary.BigEndian.Uint64(d[:8]))
	return mix64(h ^ binary.BigEndian.Uint64(d[8:]))
}

// home returns the first slot of (src, dst)'s probe run in t.
func (t *spdTable) home(src, dst netip.Addr) uint64 { return hashPair(src, dst) >> t.shift }

// find returns (src, dst)'s slot in t and the SA it holds, or the empty slot
// that ends the probe run and a nil SA.
func (t *spdTable) find(src, dst netip.Addr) (*spdSlot, *OutboundSA) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(src, dst); ; i = (i + 1) & mask {
		s := &t.slots[i]
		sa := s.sa.Load()
		if sa == nil || s.pair.src == src && s.pair.dst == dst {
			return s, sa
		}
	}
}

// add indexes pair to sa unless pair is indexed already (first match wins)
// and returns the table to publish: t, filled in place, or at half load a
// copy of t twice its size. A nil t is an empty index.
func (t *spdTable) add(pair hostPair, sa *OutboundSA) *spdTable {
	if t == nil {
		t = newSPDTable(1)
	}
	s, cur := t.find(pair.src, pair.dst)
	if cur != nil {
		return t // a later duplicate never shadows the first
	}
	if t.used >= len(t.slots)/2 {
		grown := newSPDTable(t.used + 1)
		for i := range t.slots {
			if old := t.slots[i].sa.Load(); old != nil {
				grown = grown.add(t.slots[i].pair, old)
			}
		}
		t = grown
		s, _ = t.find(pair.src, pair.dst)
	}
	s.pair = pair
	s.sa.Store(sa)
	t.used++
	return t
}

// NewSPD returns an empty policy database.
func NewSPD() *SPD {
	p := &SPD{}
	p.cur.Store(emptySPDView)
	return p
}

// emptySPDView backs zero-value and fresh SPDs.
var emptySPDView = &spdView{}

// view returns the current snapshot, tolerating a zero-value SPD.
func (p *SPD) view() *spdView {
	if v := p.cur.Load(); v != nil {
		return v
	}
	return emptySPDView
}

// rebuildSPDView derives a fresh view from an entry list: the host-route
// index is built entry by entry, so first-match-wins is identical to the
// ordered scan.
func rebuildSPDView(entries []spdEntry) *spdView {
	v := &spdView{entries: entries, index: newSPDTable(len(entries))}
	for _, e := range entries {
		if !e.sel.Src.IsSingleIP() || !e.sel.Dst.IsSingleIP() {
			return &spdView{entries: entries, scanAll: true}
		}
		v.index = v.index.add(hostPair{src: e.sel.Src.Addr(), dst: e.sel.Dst.Addr()}, e.sa)
	}
	return v
}

// Add appends a policy entry. The new view's entry list shares the old
// backing array where capacity allows (published views only ever read
// their own prefix, and in-place mutation happens solely on freshly copied
// slices), and a host route fills one index slot in place, so an Add is
// amortized O(1) whatever the table holds.
func (p *SPD) Add(sel Selector, sa *OutboundSA) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.view()
	v := &spdView{entries: append(old.entries, spdEntry{sel: sel, sa: sa}),
		index: old.index, scanAll: old.scanAll}
	switch {
	case old.scanAll:
		// The ordered scan already decides; no index to maintain.
	case !sel.Src.IsSingleIP() || !sel.Dst.IsSingleIP():
		// A non-host selector: the ordered scan decides from here on.
		v.index, v.scanAll = nil, true
	default:
		v.index = old.index.add(hostPair{src: sel.Src.Addr(), dst: sel.Dst.Addr()}, sa)
	}
	p.cur.Store(v)
}

// Len returns the number of policy entries.
func (p *SPD) Len() int { return len(p.view().entries) }

// Replace atomically repoints every entry carrying old to carry new,
// preserving each entry's selector and position — the outbound cutover of a
// make-before-break rekey: one moment the selectors seal on the old
// generation, the next on its successor, with no window where a lookup can
// miss. Returns the number of entries repointed.
func (p *SPD) Replace(old, new *OutboundSA) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.view()
	n := 0
	for i := range v.entries {
		if v.entries[i].sa == old {
			n++
		}
	}
	if n == 0 {
		return 0 // nothing matched; keep the published view
	}
	entries := make([]spdEntry, len(v.entries))
	copy(entries, v.entries)
	for i := range entries {
		if entries[i].sa == old {
			entries[i].sa = new
		}
	}
	p.cur.Store(rebuildSPDView(entries))
	return n
}

// Remove deletes every entry whose SA has the given SPI, returning how many
// were removed. The published view is rebuilt from the surviving entries,
// so first-match-wins semantics are preserved — and a removal that takes
// out the only non-host selector restores O(1) lookups.
func (p *SPD) Remove(spi uint32) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.view()
	kept := make([]spdEntry, 0, len(v.entries))
	n := 0
	for _, e := range v.entries {
		if e.sa.SPI() == spi {
			n++
			continue
		}
		kept = append(kept, e)
	}
	if n == 0 {
		return 0
	}
	p.cur.Store(rebuildSPDView(kept))
	return n
}

// Range calls fn for each policy entry in order until fn returns false,
// iterating a consistent published snapshot without blocking writers — the
// iteration a control plane needs to export the policy table (e.g. for a
// standby's mirror).
func (p *SPD) Range(fn func(Selector, *OutboundSA) bool) {
	for _, e := range p.view().entries {
		if !fn(e.sel, e.sa) {
			return
		}
	}
}

// set publishes entries, in order, as the whole policy.
func (p *SPD) set(entries []spdEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cur.Store(rebuildSPDView(entries))
}

// Lookup returns the first SA whose selector covers (src, dst). It is
// wait-free: one atomic view load, then the index's probe run (all-host-route
// tables) or the ordered scan.
func (p *SPD) Lookup(src, dst netip.Addr) (*OutboundSA, bool) {
	v := p.view()
	if !v.scanAll {
		if v.index == nil {
			return nil, false
		}
		_, sa := v.index.find(src, dst)
		return sa, sa != nil
	}
	for _, e := range v.entries {
		if e.sel.Matches(src, dst) {
			return e.sa, true
		}
	}
	return nil, false
}
