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

// isHost reports whether s is a host route: both prefixes single-address.
func (s *Selector) isHost() bool { return s.Src.IsSingleIP() && s.Dst.IsSingleIP() }

// SPD is the security policy database: an ordered list of selectors mapping
// outbound traffic to SAs (first match wins). Host-route selectors (both
// prefixes single-address, the common shape on a tunnel concentrator) are
// also indexed by (src, dst) in an open-addressed table; while every live
// entry is a host route, Lookup is O(1) instead of a linear selector scan.
// A live non-host selector falls Lookup back to the ordered scan, preserving
// first-match-wins exactly.
//
// A write touches only the entries of the SA it names. Add appends one
// entry and fills one index slot in place. Replace stores the successor
// into each of the old SA's entries, found through a chain the writer keeps
// (its head in the SA, its links in the entries), so a rekey keeps every
// selector, position and slot. Remove tombstones the SA's entries. Entries
// and index are rebuilt without tombstones once these pass half the
// entries, and when the last live non-host selector goes. Reads are
// wait-free against an atomically published view; see spdView. An SA is in
// at most one SPD. Safe for concurrent use.
type SPD struct {
	cur  atomic.Pointer[spdView]
	live atomic.Int64 // live entries

	mu       sync.Mutex // serializes writers
	dead     int        // tombstones in cur; under mu
	hostless int        // live non-host selectors; under mu
}

// spdEntry is one policy entry. sa is nil once the entry is removed: a
// tombstone, which every reader skips and the next rebuild drops. next and
// dup are the writer's links, each an entry position plus one (0 ends the
// chain), never read by a lookup: next is the same SA's next entry, dup the
// next entry of the same host pair, which inherits the pair's index slot
// once the entries before it die.
type spdEntry struct {
	sel       Selector
	sa        atomic.Pointer[OutboundSA]
	next, dup int32
}

// spdView is one generation of the policy database: an append-only backing
// array of entries, the count in use, and the host-route index over their
// positions. Add fills the next entry and one index slot in place and then
// stores the count; the view is republished only when the array or the
// index doubles, when the first non-host selector takes the index away,
// and by a rebuild. A reader loads the view once. The entries below its
// count and the filled slots do not change after they are published, except
// each entry's SA pointer, which Replace and Remove store atomically. A
// reader still on a superseded view sees its array as the writer left it,
// as a reader of a copy-on-write snapshot would.
type spdView struct {
	entries []spdEntry   // the backing array, all of its capacity
	n       atomic.Int32 // entries in use, live or tombstoned
	index   *spdTable    // host routes; nil while empty and while scanAll
	scanAll bool         // a non-host selector is live; the ordered scan decides
}

// emptySPDView backs an SPD nothing was added to. Its array has no room, so
// the first Add grows a view of its own and this one is never written.
var emptySPDView = &spdView{}

// with returns a view of v's entries under another index.
func (v *spdView) with(index *spdTable, scanAll bool) *spdView {
	w := &spdView{entries: v.entries, index: index, scanAll: scanAll}
	w.n.Store(v.n.Load())
	return w
}

// grown returns a view of v's entries copied into an array twice the size,
// under v's index: positions do not move.
func (v *spdView) grown() *spdView {
	w := &spdView{entries: make([]spdEntry, max(minTableSlots, 2*len(v.entries))), index: v.index, scanAll: v.scanAll}
	n := v.n.Load()
	for i := range n {
		from, to := &v.entries[i], &w.entries[i]
		to.sel, to.next, to.dup = from.sel, from.next, from.dup
		to.sa.Store(from.sa.Load())
	}
	w.n.Store(n)
	return w
}

// spdTable is the SPD's host-route index: one word a slot, 0 while empty,
// else an entry's position plus one in the low half and its host pair's
// hash tag in the high half (the hash's low 32 bits; its top bits pick the
// home slot). A lookup whose tag matches confirms the pair against the
// entry's selector. A pair keeps its slot: the slot names the pair's first
// live entry or, once all of them died, a dead one, which keeps the probe
// runs through it unbroken and which the pair's next Add takes over.
type spdTable struct {
	slots []atomic.Uint64
	shift uint8
	used  int // filled slots; written only under the SPD's writer mutex
}

// newSPDTable returns an empty index sized for routes host routes.
func newSPDTable(routes int) *spdTable {
	n := minTableSlots
	for n < 2*routes {
		n *= 2
	}
	return &spdTable{slots: make([]atomic.Uint64, n), shift: tableShift(n)}
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

// slotWord is the index word naming the entry at pos for a pair hashing to h.
func slotWord(h uint64, pos int) uint64 { return h<<32 | uint64(pos+1) }

// find returns the slot of t holding (src, dst), which hashes to h, and the
// position of the entry it names; or the empty slot that ends the pair's
// probe run, and -1. A slot naming a position past entries was filled after
// a reader's view was superseded, for a pair added since, and is passed.
func (t *spdTable) find(entries []spdEntry, h uint64, src, dst netip.Addr) (*atomic.Uint64, int) {
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return &t.slots[i], -1
		}
		if pos := int(uint32(s)) - 1; s>>32 == h&(1<<32-1) && pos < len(entries) {
			if sel := &entries[pos].sel; sel.Src.Addr() == src && sel.Dst.Addr() == dst {
				return &t.slots[i], pos
			}
		}
	}
}

// add indexes the host route at entries[pos] and returns the table to
// publish: t, filled in place, or at half load a copy twice its size. A
// pair with a live entry keeps it (first match wins), and the new entry
// joins the end of the pair's duplicates. A nil t is an empty index.
func (t *spdTable) add(entries []spdEntry, pos int) *spdTable {
	if t == nil {
		t = newSPDTable(1)
	}
	src, dst := entries[pos].sel.Src.Addr(), entries[pos].sel.Dst.Addr()
	h := hashPair(src, dst)
	slot, at := t.find(entries, h, src, dst)
	if at >= 0 && entries[at].sa.Load() != nil {
		for entries[at].dup != 0 {
			at = int(entries[at].dup) - 1
		}
		entries[at].dup = int32(pos + 1)
		return t
	}
	if at < 0 { // a new pair; a dead pair's slot is taken over in place
		if t.used >= len(t.slots)/2 {
			t = t.grown(entries)
			slot, _ = t.find(entries, h, src, dst)
		}
		t.used++
	}
	slot.Store(slotWord(h, pos))
	return t
}

// grown returns a table twice t's size holding t's slots that name a live
// entry. A dead pair's slot stays behind with the probe runs it kept whole.
func (t *spdTable) grown(entries []spdEntry) *spdTable {
	g := newSPDTable(t.used + 1)
	for i := range t.slots {
		s := t.slots[i].Load()
		if s == 0 || entries[uint32(s)-1].sa.Load() == nil {
			continue
		}
		sel := &entries[uint32(s)-1].sel
		slot, _ := g.find(entries, hashPair(sel.Src.Addr(), sel.Dst.Addr()), sel.Src.Addr(), sel.Dst.Addr())
		slot.Store(s)
		g.used++
	}
	return g
}

// unroute hands the slot naming entries[pos], about to die, to the pair's
// next live duplicate. With none, the slot stays on the dead entry.
func (t *spdTable) unroute(entries []spdEntry, pos int) {
	src, dst := entries[pos].sel.Src.Addr(), entries[pos].sel.Dst.Addr()
	h := hashPair(src, dst)
	slot, at := t.find(entries, h, src, dst)
	if at != pos {
		return // a later duplicate: the slot names an earlier entry
	}
	for q := int(entries[pos].dup) - 1; q >= 0; q = int(entries[q].dup) - 1 {
		if entries[q].sa.Load() != nil {
			slot.Store(slotWord(h, q))
			return
		}
	}
}

// NewSPD returns an empty policy database.
func NewSPD() *SPD { return &SPD{} }

// view returns the current snapshot, tolerating a zero-value SPD.
func (p *SPD) view() *spdView {
	if v := p.cur.Load(); v != nil {
		return v
	}
	return emptySPDView
}

// put appends (sel, sa) to v, which only the writer holding mu changes,
// and links it into sa's chain and into the index or the non-host count.
// It returns the view to publish: v, filled in place, or a new one (see
// spdView). The count is stored last, so a scan reads only whole entries.
func (p *SPD) put(v *spdView, sel Selector, sa *OutboundSA) *spdView {
	pos := int(v.n.Load())
	if pos == len(v.entries) {
		v = v.grown()
	}
	e := &v.entries[pos]
	e.sel, e.next = sel, sa.spdHead
	e.sa.Store(sa)
	sa.spdHead = int32(pos + 1)
	p.live.Add(1)
	switch {
	case !sel.isHost():
		if p.hostless++; !v.scanAll {
			v = v.with(nil, true)
		}
	case !v.scanAll:
		if t := v.index.add(v.entries, pos); t != v.index {
			v = v.with(t, false)
		}
	}
	v.n.Store(int32(pos + 1))
	return v
}

// reset empties the writer's state of v, whose live SAs lose their chains,
// and returns an empty view with room for size entries (mu held).
func (p *SPD) reset(v *spdView, size int) *spdView {
	for i := range v.n.Load() {
		if sa := v.entries[i].sa.Load(); sa != nil {
			sa.spdHead = 0
		}
	}
	p.live.Store(0)
	p.dead, p.hostless = 0, 0
	return &spdView{entries: make([]spdEntry, max(minTableSlots, size))}
}

// rebuild publishes v's live entries alone, in order: a fresh array,
// chains, duplicate links and index, without tombstones (mu held).
func (p *SPD) rebuild(v *spdView) {
	nv := p.reset(v, int(p.live.Load()))
	for i := range v.n.Load() {
		if sa := v.entries[i].sa.Load(); sa != nil {
			nv = p.put(nv, v.entries[i].sel, sa)
		}
	}
	p.cur.Store(nv)
}

// Add appends a policy entry: one entry and, for a host route, one index
// slot, both filled in place (see spdView), so an Add is amortized O(1)
// whatever the table holds.
func (p *SPD) Add(sel Selector, sa *OutboundSA) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.view()
	if nv := p.put(v, sel, sa); nv != v {
		p.cur.Store(nv)
	}
}

// Len returns the number of policy entries.
func (p *SPD) Len() int { return int(p.live.Load()) }

// Replace atomically repoints every entry carrying old to carry new,
// preserving each entry's selector and position — the outbound cutover of a
// make-before-break rekey: one moment the selectors seal on the old
// generation, the next on its successor, with no window where a lookup can
// miss. It walks old's chain, stores new into each entry and hands the
// chain to new; nothing is copied or reindexed. Returns the number of
// entries repointed.
func (p *SPD) Replace(old, new *OutboundSA) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries := p.view().entries
	n, last := 0, -1
	for pos := int(old.spdHead) - 1; pos >= 0; pos = int(entries[pos].next) - 1 {
		entries[pos].sa.Store(new)
		n, last = n+1, pos
	}
	if n > 0 && old != new {
		entries[last].next, new.spdHead, old.spdHead = new.spdHead, old.spdHead, 0
	}
	return n
}

// Remove deletes every entry of sa, returning how many were removed. Each
// becomes a tombstone in place, so the entries that remain keep their
// first-match order: a scan skips it, and a host route's index slot passes
// to the pair's next live duplicate. Entries and index are rebuilt once
// tombstones pass half the entries, and when the last live non-host
// selector goes, which returns lookups to the index.
func (p *SPD) Remove(sa *OutboundSA) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.view()
	n := 0
	for pos := int(sa.spdHead) - 1; pos >= 0; pos = int(v.entries[pos].next) - 1 {
		e := &v.entries[pos]
		switch {
		case !e.sel.isHost():
			p.hostless--
		case !v.scanAll:
			v.index.unroute(v.entries, pos)
		}
		e.sa.Store(nil)
		n++
	}
	if n == 0 {
		return 0
	}
	sa.spdHead = 0
	p.live.Add(-int64(n))
	if p.dead += n; 2*p.dead > int(v.n.Load()) || v.scanAll && p.hostless == 0 {
		p.rebuild(v)
	}
	return n
}

// Range calls fn for each policy entry in order until fn returns false,
// without blocking writers — the iteration a control plane needs to export
// the policy table (e.g. for a standby's mirror). An entry a concurrent
// write repoints or removes is seen before or after that write.
func (p *SPD) Range(fn func(Selector, *OutboundSA) bool) {
	v := p.view()
	for i := range v.n.Load() {
		e := &v.entries[i]
		if sa := e.sa.Load(); sa != nil && !fn(e.sel, sa) {
			return
		}
	}
}

// set publishes policy, entry i sealing on sas[i], as the whole policy.
func (p *SPD) set(policy []PolicySnapshot, sas []*OutboundSA) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.reset(p.view(), len(policy))
	for i := range policy {
		v = p.put(v, policy[i].Selector, sas[i])
	}
	p.cur.Store(v)
}

// Lookup returns the first SA whose selector covers (src, dst). It is
// wait-free: one atomic view load, then the index's probe run and the
// entry its slot names (all-host-route tables), or the ordered scan.
func (p *SPD) Lookup(src, dst netip.Addr) (*OutboundSA, bool) {
	v := p.view()
	if !v.scanAll {
		if v.index == nil {
			return nil, false
		}
		_, pos := v.index.find(v.entries, hashPair(src, dst), src, dst)
		if pos < 0 {
			return nil, false
		}
		sa := v.entries[pos].sa.Load()
		return sa, sa != nil
	}
	for i := range v.n.Load() {
		if e := &v.entries[i]; e.sel.Matches(src, dst) {
			if sa := e.sa.Load(); sa != nil {
				return sa, true
			}
		}
	}
	return nil, false
}
