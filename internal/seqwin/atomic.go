package seqwin

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// atomicWord is one ring slot of an Atomic window: a 64-bit seen-bitmap plus
// a tag recording which 64-number block the bitmap currently represents.
// The tag is seqlock-encoded: 2*blk while the slot stably holds block blk,
// 2*blk-1 while a slide is recycling the slot INTO block blk. Readers only
// trust a bit they set while observing the same even tag before and after
// the set; the recycler publishes the odd tag strictly before wiping the
// word, so any reader whose bit could have been wiped is guaranteed to see
// the tag move and discard instead. The pad keeps each slot on its own
// cache line so bit-sets on different words never false-share.
// Both words go through sync/atomic's functions everywhere but in fill, which
// owns the window while it runs and stores them plainly.
type atomicWord struct {
	bits uint64
	tag  uint64
	_    [48]byte
}

// Atomic is a concurrency-safe anti-replay window in the style of the Linux
// xfrm / WireGuard receive counters: an RFC 6479 ring of 64-bit words, but
// with the right edge advanced by compare-and-swap and seen-bits set with
// atomic fetch-OR instead of under a lock. Used serially it makes exactly
// the decisions Bitmap makes (the differential tests enforce this); used
// concurrently it never delivers the same number twice, in any
// interleaving. It may conservatively discard a fresh number that races a
// large window slide — the same trade every anti-replay window already
// makes for out-of-window traffic. Reinit still requires external
// serialization against concurrent Admits.
//
// The exactly-once argument has three legs:
//
//   - Every delivery — in-window mark and freshly CASed edge alike — is
//     decided by one fetch-OR on the number's seen-bit (claim): of all
//     goroutines admitting one number, exactly one observes the bit clear.
//     In particular, the edge-CAS winner does not deliver by virtue of the
//     CAS; a replay racing into the window it just published contends on
//     the same bit.
//   - Edge advances serialize on the CAS and the edge only grows.
//   - Ring words are recycled only after the edge covering the new block is
//     published, under the tag protocol above: tags only move forward, a
//     wipe is always preceded by the odd transition tag, and claim re-reads
//     the tag after its fetch-OR. If the recheck still shows the even tag
//     of its block, no wipe can have intervened; if it does not, the number
//     is already stale under the published edge and the admit discards
//     conservatively.
//
// A small mutex serializes recycling between concurrent advances (two
// overlapping slides may alias the same physical slot); in-order traffic
// crosses a word boundary — and thus takes that mutex — once per 64
// packets, and in-window traffic never takes it.
type Atomic struct {
	w     int
	mask  uint64 // len(words)-1; the ring size is a power of two
	edge  atomic.Uint64
	reMu  sync.Mutex // serializes word recycling between advances
	words []atomicWord

	// Delivery accounting without a per-packet counter: every delivery IS a
	// bit flipped by claim, so the delivered count is the number of set bits
	// minus the ones Reinit pre-marked — summed as popcounts when recycle
	// wipes a word (wiped) plus a scan of the live ring on demand. This
	// keeps the admission fast path at two locked operations; see Delivered
	// for the exactness contract.
	wiped     atomic.Uint64 // popcount of bits wiped by recycles since Reinit
	preMarked uint64        // bits pre-set by the last Reinit (not deliveries)
}

// NewAtomic returns a concurrency-safe window of width w (w >= 1) in the
// initial state: edge 0, nothing seen. See NewAtomicAt.
func NewAtomic(w int) *Atomic { return NewAtomicAt(w, 0, false) }

// NewAtomicAt returns a concurrency-safe window of width w (w >= 1) installed
// at edge, full or empty: what a receiver publishes on wake-up. The ring holds
// at least ceil(w/64)+1 words — the spare word is what guarantees a live
// in-window number never shares a physical slot with a block being recycled —
// rounded up to a power of two so the per-packet block-to-slot map is a mask
// instead of a DIV (an extra ~10ns per admit on commodity x86). Extra slots
// only retain more already-stale history; the tag protocol ignores them. It
// panics if w < 1 (programmer error).
func NewAtomicAt(w int, edge uint64, allSeen bool) *Atomic {
	if w < 1 {
		panic(fmt.Sprintf("seqwin: window width %d < 1", w))
	}
	nwords := 1
	for nwords < (w+63)/64+1 {
		nwords <<= 1
	}
	a := &Atomic{w: w, mask: uint64(nwords - 1), words: make([]atomicWord, nwords)}
	a.fill(edge, allSeen)
	return a
}

// fill installs the window at edge in one pass over the ring: each slot gets
// the tag of the newest block at or below the edge's that maps to it (slots
// the edge has not reached yet keep blocks 0..n-1, as in a fresh window) and,
// with allSeen, that block's share of (edge-w, edge] as one whole-word mask.
// Two plain stores a ring word, whatever w is: the caller excludes every
// other use, and what publishes the window orders them before the next admit.
func (a *Atomic) fill(edge uint64, allSeen bool) {
	a.edge.Store(edge)
	uw := uint64(a.w)
	first, mark := max(edge, uw)-uw+1, allSeen && edge > 0 // mark [first, edge] seen
	a.preMarked = 0
	top := edge / 64
	for i := range a.words {
		blk := top - (top-uint64(i))&a.mask
		if blk > top {
			blk = uint64(i) // wrapped below block 0: the edge is not a ring deep yet
		}
		var seen uint64
		if lo, hi := max(first, blk*64), min(edge, blk*64+63); mark && lo <= hi {
			seen, _ = windowMask(lo, hi)
		}
		a.words[i].bits, a.words[i].tag = seen, stableTag(blk)
		a.preMarked += uint64(bits.OnesCount64(seen))
	}
}

// stableTag is the tag of a slot stably holding block blk; stableTag-1 is
// the transitional tag while a slide recycles the slot into blk.
func stableTag(blk uint64) uint64 { return blk * 2 }

func (a *Atomic) slot(blk uint64) *atomicWord { return &a.words[blk&a.mask] }

// Admit decides and records sequence number s. Safe for concurrent use.
func (a *Atomic) Admit(s uint64) Decision {
	for {
		r := a.edge.Load()
		if staleBelow(s, r, a.w) {
			return DecisionStale
		}
		if s <= r {
			return a.claim(s, DecisionInWindow)
		}
		// Advance: publish the new edge first, then recycle the ring words
		// the edge passed over. Publishing first is what makes concurrent
		// clearing safe — any bit the recycle wipes belongs to a number that
		// is already stale under the published edge.
		if !a.edge.CompareAndSwap(r, s) {
			continue // another admit moved the edge; re-decide against it
		}
		if s/64 != r/64 {
			a.recycle(r/64, s/64)
		}
		// Winning the edge CAS is NOT the delivery decision: between the CAS
		// and this point a replay of s (now in-window under the published
		// edge) can race us to the seen-bit. The fetch-OR in claim is the
		// one serialization point for delivering s — whoever flips the bit
		// delivers, everyone else sees a duplicate.
		return a.claim(s, DecisionNew)
	}
}

// recycle clears the ring words for blocks (from, to], skipping any slot a
// later (larger) advance has already carried past. The mutex serializes
// overlapping advances whose block ranges alias the same physical slots.
// Order is load-bearing: the transitional tag is published before the wipe,
// the stable tag after it, and tags never move backward.
func (a *Atomic) recycle(from, to uint64) {
	n := uint64(len(a.words))
	lo := from + 1
	if to >= n && lo < to-n+1 {
		lo = to - n + 1 // the slide laps the ring; only the top n blocks survive
	}
	a.reMu.Lock()
	for b := lo; b <= to; b++ {
		wd := a.slot(b)
		if atomic.LoadUint64(&wd.tag) >= stableTag(b) {
			continue
		}
		atomic.StoreUint64(&wd.tag, stableTag(b)-1) // announce: bits are about to be wiped
		if old := atomic.LoadUint64(&wd.bits); old != 0 {
			// Fold the outgoing block's deliveries into the wiped tally
			// before the bits vanish; runs once per 64 in-order packets.
			a.wiped.Add(uint64(bits.OnesCount64(old)))
		}
		atomic.StoreUint64(&wd.bits, 0)
		atomic.StoreUint64(&wd.tag, stableTag(b))
	}
	a.reMu.Unlock()
}

// Delivered returns how many distinct sequence numbers this window has
// delivered since its last Reinit: the bits recycling wiped plus the bits
// still live in the ring, minus the bits Reinit pre-marked. Exact once
// admits quiesce (every claim's fetch-OR is a delivery and vice versa);
// while admits are in flight it is a moment-in-time snapshot that can
// additionally over-count by claims that straddled a whole-ring slide (the
// same vanishingly rare interleaving documented in claim). This derivation
// is what lets the admission fast path skip a dedicated delivered counter —
// the claim bit-flip already records the event.
func (a *Atomic) Delivered() uint64 {
	var live uint64
	for i := range a.words {
		live += uint64(bits.OnesCount64(atomic.LoadUint64(&a.words[i].bits)))
	}
	return a.wiped.Load() + live - a.preMarked
}

// claim runs the test-and-set for s under the tag protocol described on
// atomicWord and returns deliver — DecisionInWindow for the in-window path,
// DecisionNew for the freshly CASed edge — if this call flipped the bit.
// The fetch-OR is the single point that decides delivery of s: of all
// concurrent admits of one number (including the edge-CAS winner racing a
// replay of its own number), exactly one observes the bit clear under a
// stable tag.
func (a *Atomic) claim(s uint64, deliver Decision) Decision {
	b := s / 64
	wd := a.slot(b)
	bit := uint64(1) << (s % 64)
	want := stableTag(b)
	for {
		// The tag is checked BEFORE the flip and again after it; both
		// checks are load-bearing. The pre-check ensures the flip only
		// lands while the slot stably holds s's block — without it, a flip
		// racing an in-progress recycle can land between the recycler's
		// bits read and its wipe, and the post-check alone cannot tell (the
		// recycler publishes the final even tag right after the wipe), so a
		// "delivered" packet would leave no seen-bit behind and its replay
		// would deliver again. The post-check ensures no recycle started
		// after the pre-check read its stable tag.
		switch tag := atomic.LoadUint64(&wd.tag); {
		case tag > want:
			// The slot was (or is being) recycled past s's block: s is
			// stale under an edge at least a full ring ahead. If s was
			// delivered before the lap its bit is gone, but every future
			// admit of s lands here (tags only grow), so nothing can
			// deliver it again; if it was never delivered, discarding a
			// fresh number that raced a whole-ring slide is the
			// conservative trade every window makes below its edge.
			return DecisionStale
		case tag < want:
			// An advance has published an edge covering s but has not
			// finished recycling this word; wait for it.
			runtime.Gosched()
			continue
		}
		// Test-and-set via an explicit CAS loop. (Not atomic.Uint64.Or: its
		// old-value intrinsic miscompiles on go1.24.0/amd64, clobbering the
		// register holding `deliver` with the Or result.)
		var old uint64
		for {
			old = atomic.LoadUint64(&wd.bits)
			if old&bit != 0 || atomic.CompareAndSwapUint64(&wd.bits, old, old|bit) {
				break
			}
		}
		if atomic.LoadUint64(&wd.tag) != want {
			// Recycled underneath us: the bit may have been wiped, so the
			// verdict is a conservative Stale (s is already below the newer
			// published edge). If our flip instead landed AFTER the wipe it
			// pollutes the slot's new block, and the one number aliasing
			// that bit position is later mis-reported Duplicate — a
			// conservative discard the type comment permits.
			// The pollution is deliberately NOT undone: from here we cannot
			// distinguish our surviving flip from a wiped flip followed by
			// a legitimate delivery of the aliasing number, and clearing a
			// delivered number's bit would re-admit its replay. Requires a
			// claim stalled across a whole-ring slide, so the lost number
			// is vanishingly rare; its retransmissions are rejected only
			// until the slot recycles again.
			return DecisionStale
		}
		if old&bit != 0 {
			return DecisionDuplicate
		}
		return deliver
	}
}

// Edge returns the right edge.
func (a *Atomic) Edge() uint64 { return a.edge.Load() }

// W returns the logical window width.
func (a *Atomic) W() int { return a.w }

// Seen reports whether s is marked received (stale numbers report true,
// numbers above the edge false), mirroring Bitmap.Seen. Under concurrency
// the answer is a racy snapshot.
func (a *Atomic) Seen(s uint64) bool {
	r := a.edge.Load()
	if staleBelow(s, r, a.w) {
		return true
	}
	if s > r {
		return false
	}
	b := s / 64
	wd := a.slot(b)
	if tag := atomic.LoadUint64(&wd.tag); tag != stableTag(b) {
		return tag > stableTag(b) // carried past: effectively stale; not yet recycled: unseen
	}
	return atomic.LoadUint64(&wd.bits)&(uint64(1)<<(s%64)) != 0
}

// Reinit reinstalls the window at edge, full or empty. Unlike Admit, Reinit
// requires external serialization against concurrent use (core.Receiver
// never calls it on a published window: it builds a new one, NewAtomicAt).
func (a *Atomic) Reinit(edge uint64, allSeen bool) {
	a.reMu.Lock()
	defer a.reMu.Unlock()
	a.wiped.Store(0)
	a.fill(edge, allSeen)
}
