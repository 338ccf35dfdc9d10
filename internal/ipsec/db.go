package ipsec

import (
	"maps"
	"net/netip"
	"sync"
	"sync/atomic"
)

// sadShardBits sets the number of shards in a SAD (a power of two so the
// hash's top bits index directly). 64 shards keep writer contention
// negligible well past 100k SAs while costing a few KB per database.
const (
	sadShardBits  = 6
	sadShardCount = 1 << sadShardBits
)

// sadMap is one shard's immutable SPI table. Readers obtain it with a
// single atomic load; writers rebuild a copy under the shard mutex and
// publish the new map — RCU with the garbage collector standing in for the
// grace period.
type sadMap = map[uint32]*InboundSA

type sadShard struct {
	cur atomic.Pointer[sadMap] // always non-nil; the published snapshot
	mu  sync.Mutex             // serializes writers (copy-on-write rebuilds)
}

// SAD is the security association database: inbound SAs keyed by SPI. Each
// of the sadShardCount shards publishes an immutable map snapshot through
// an atomic pointer, so the per-packet Lookup is wait-free — one atomic
// load plus a map read, with no lock acquisition at all. Mutations
// (Add/Delete) copy the shard's map under a writer mutex and swap the
// pointer; at gateway scale they are control-plane rare while lookups run
// per packet, exactly the asymmetry copy-on-write wants. Safe for
// concurrent use.
type SAD struct {
	shards [sadShardCount]sadShard
}

// NewSAD returns an empty database.
func NewSAD() *SAD {
	d := &SAD{}
	empty := sadMap{}
	for i := range d.shards {
		d.shards[i].cur.Store(&empty)
	}
	return d
}

// shard maps an SPI to its shard. SPIs are often allocated sequentially,
// so the index comes from the top bits of a Fibonacci-hash multiply rather
// than the SPI's own low bits.
func (d *SAD) shard(spi uint32) *sadShard {
	return &d.shards[(spi*2654435761)>>(32-sadShardBits)]
}

// mutate rebuilds a shard's snapshot through fn under the writer mutex.
func (s *sadShard) mutate(fn func(m sadMap)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.cur.Load()
	m := make(sadMap, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	fn(m)
	s.cur.Store(&m)
}

// Add registers sa, replacing any SA with the same SPI.
func (d *SAD) Add(sa *InboundSA) {
	d.shard(sa.SPI()).mutate(func(m sadMap) { m[sa.SPI()] = sa })
}

// Delete removes the SA with the given SPI, reporting whether it existed.
// Deleting an absent SPI is a read-only no-op (no snapshot republish).
func (d *SAD) Delete(spi uint32) bool {
	s := d.shard(spi)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.cur.Load()
	if _, ok := old[spi]; !ok {
		return false
	}
	m := make(sadMap, len(old))
	for k, v := range old {
		if k != spi {
			m[k] = v
		}
	}
	s.cur.Store(&m)
	return true
}

// Lookup returns the SA for spi. It is wait-free: one atomic snapshot load
// and a map read, safe against any concurrent Add/Delete.
func (d *SAD) Lookup(spi uint32) (*InboundSA, bool) {
	sa, ok := (*d.shard(spi).cur.Load())[spi]
	return sa, ok
}

// Len returns the number of registered SAs.
func (d *SAD) Len() int {
	n := 0
	for i := range d.shards {
		n += len(*d.shards[i].cur.Load())
	}
	return n
}

// Range calls fn for each registered SA until fn returns false. The
// iteration walks each shard's published snapshot without blocking writers;
// SAs added or deleted concurrently may or may not be observed.
func (d *SAD) Range(fn func(*InboundSA) bool) {
	for i := range d.shards {
		for _, sa := range *d.shards[i].cur.Load() {
			if !fn(sa) {
				return
			}
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
// view with one atomic load; every mutation builds and publishes a fresh
// view under the writer mutex, so a reader can never observe a half-updated
// index — the property the old read-write lock provided, now without any
// per-packet lock traffic.
//
// The index is two maps with disjoint keys: exact, and recent, which holds
// the host routes added since exact was last rebuilt. An Add copies only
// recent, and folds it into a new exact once len(recent)² outgrows
// len(exact) — about √n copied per Add instead of n. Everything in exact
// is older than everything in recent, so probing exact first is
// first-match-wins, and a route that has reached exact costs the one probe
// it always did.
type spdView struct {
	entries       []spdEntry
	exact, recent map[hostPair]*OutboundSA
	scanAll       bool // a non-host selector exists; the ordered scan decides
}

// SPD is the security policy database: an ordered list of selectors mapping
// outbound traffic to SAs (first match wins). Host-route selectors (both
// prefixes single-address, the common shape on a tunnel concentrator) are
// additionally indexed in a hash map; while every entry is a host route,
// Lookup is O(1) instead of a linear selector scan — the outbound analogue
// of the SAD's sharding. One non-host selector falls Lookup back to the
// ordered scan, preserving first-match-wins exactly. Reads are wait-free
// against an atomically published immutable view; see spdView. Safe for
// concurrent use.
type SPD struct {
	mu  sync.Mutex // serializes writers (view rebuilds)
	cur atomic.Pointer[spdView]
}

type spdEntry struct {
	sel Selector
	sa  *OutboundSA
}

type hostPair struct {
	src, dst netip.Addr
}

// emptySPDView backs zero-value and fresh SPDs.
var emptySPDView = &spdView{}

// NewSPD returns an empty policy database.
func NewSPD() *SPD {
	p := &SPD{}
	p.cur.Store(emptySPDView)
	return p
}

// view returns the current snapshot, tolerating a zero-value SPD.
func (p *SPD) view() *spdView {
	if v := p.cur.Load(); v != nil {
		return v
	}
	return emptySPDView
}

// rebuild derives a fresh view from an entry list: the host-route index is
// reconstructed entry by entry so first-match-wins semantics are identical
// to the ordered scan.
func rebuildSPDView(entries []spdEntry) *spdView {
	v := &spdView{entries: entries, exact: make(map[hostPair]*OutboundSA, len(entries))}
	for _, e := range entries {
		if e.sel.Src.IsSingleIP() && e.sel.Dst.IsSingleIP() {
			pair := hostPair{src: e.sel.Src.Addr(), dst: e.sel.Dst.Addr()}
			if _, dup := v.exact[pair]; !dup {
				// First match wins; a later duplicate never shadows it.
				v.exact[pair] = e.sa
			}
		} else {
			v.scanAll = true
			v.exact = nil // never consulted; the ordered scan decides
			break
		}
	}
	if v.scanAll {
		v.exact = nil
	}
	return v
}

// Add appends a policy entry. The new view's entry list shares the old
// backing array where capacity allows (published views only ever read
// their own prefix, and in-place mutation happens solely on freshly copied
// slices), so the slice work is amortized O(1); a host route copies the
// recent half of the index — the price of lock-free readers, amortized
// O(√n) per Add; see spdView.
func (p *SPD) Add(sel Selector, sa *OutboundSA) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.view()
	v := &spdView{entries: append(old.entries, spdEntry{sel: sel, sa: sa}),
		exact: old.exact, recent: old.recent, scanAll: old.scanAll}
	switch {
	case old.scanAll:
		// The ordered scan already decides; no index to maintain.
	case !sel.Src.IsSingleIP() || !sel.Dst.IsSingleIP():
		// A non-host selector: the ordered scan decides from here on.
		v.exact, v.recent, v.scanAll = nil, nil, true
	default:
		pair := hostPair{src: sel.Src.Addr(), dst: sel.Dst.Addr()}
		_, inExact := old.exact[pair]
		_, inRecent := old.recent[pair]
		if inExact || inRecent {
			break // first match wins; a later duplicate never shadows it
		}
		n := len(old.recent) + 1
		fold := n*n > len(old.exact)
		if fold {
			n += len(old.exact)
		}
		grown := make(map[hostPair]*OutboundSA, n)
		maps.Copy(grown, old.recent)
		grown[pair] = sa
		if v.recent = grown; fold {
			// The fresh copy of recent absorbs exact and takes its place.
			maps.Copy(grown, old.exact)
			v.exact, v.recent = grown, nil
		}
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

// Lookup returns the first SA whose selector covers (src, dst). It is
// wait-free: one atomic view load, then a hash probe (all-host-route
// tables) or the ordered scan.
func (p *SPD) Lookup(src, dst netip.Addr) (*OutboundSA, bool) {
	v := p.view()
	if !v.scanAll {
		pair := hostPair{src: src, dst: dst}
		if sa, ok := v.exact[pair]; ok {
			return sa, true
		}
		sa, ok := v.recent[pair]
		return sa, ok
	}
	for _, e := range v.entries {
		if e.sel.Matches(src, dst) {
			return e.sa, true
		}
	}
	return nil, false
}
