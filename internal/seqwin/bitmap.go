package seqwin

import "fmt"

// Bitmap is an RFC 6479-style anti-replay window: a ring of 64-bit words
// holding seen-bits for sequence numbers, sized to at least the window width
// plus one spare word so that whole words can be cleared as the window
// advances (no per-bit shifting).
//
// Bit for sequence number s lives at word (s/64) mod len(words), bit s%64.
// Words between the old and new edge are zeroed on advance, which keeps the
// invariant that every bit position in (edge-w, edge] faithfully records
// whether that sequence number has been accepted.
type Bitmap struct {
	words []uint64
	mask  uint64 // len(words)-1; the ring size is a power of two
	r     uint64 // right edge
	w     int    // logical window width
}

var _ Window = (*Bitmap)(nil)

// NewBitmap returns a window of width w (w >= 1). The ring holds at least
// ceil(w/64)+1 words, the spare word RFC 6479 requires, rounded up to a
// power of two so the per-packet block-to-word map is a mask instead of a
// DIV. Extra words only retain more already-stale history. It panics if
// w < 1 (programmer error).
func NewBitmap(w int) *Bitmap {
	b := new(Bitmap)
	b.Init(w)
	return b
}

// Init makes b an empty window of width w in place, as NewBitmap does for a
// new one: a window embedded by value in its owner costs one object less,
// the ring. It panics if w < 1.
func (b *Bitmap) Init(w int) {
	if w < 1 {
		panic(fmt.Sprintf("seqwin: window width %d < 1", w))
	}
	nwords := 1
	for nwords < (w+63)/64+1 {
		nwords <<= 1
	}
	*b = Bitmap{words: make([]uint64, nwords), mask: uint64(nwords - 1), w: w}
}

func (b *Bitmap) wordOf(s uint64) int { return int((s / 64) & b.mask) }

func (b *Bitmap) bit(s uint64) uint64 { return uint64(1) << (s % 64) }

// Admit decides and records sequence number s.
func (b *Bitmap) Admit(s uint64) Decision {
	if staleBelow(s, b.r, b.w) {
		return DecisionStale
	}
	if s > b.r {
		b.advance(s)
		b.words[b.wordOf(s)] |= b.bit(s)
		b.r = s
		return DecisionNew
	}
	wi, m := b.wordOf(s), b.bit(s)
	if b.words[wi]&m != 0 {
		return DecisionDuplicate
	}
	b.words[wi] |= m
	return DecisionInWindow
}

// advance zeroes the ring words the edge passes over when moving from b.r
// to s (exclusive of b.r's word, inclusive of s's word).
func (b *Bitmap) advance(s uint64) {
	cur := b.r / 64
	dst := s / 64
	if dst-cur >= uint64(len(b.words)) {
		clear(b.words)
		return
	}
	for wd := cur + 1; wd <= dst; wd++ {
		b.words[wd&b.mask] = 0
	}
}

// Edge returns the right edge.
func (b *Bitmap) Edge() uint64 { return b.r }

// W returns the logical window width.
func (b *Bitmap) W() int { return b.w }

// Seen reports whether s is marked received (stale numbers report true,
// numbers above the edge false), mirroring Bool.Seen.
func (b *Bitmap) Seen(s uint64) bool {
	if staleBelow(s, b.r, b.w) {
		return true
	}
	if s > b.r {
		return false
	}
	return b.words[b.wordOf(s)]&b.bit(s) != 0
}

// Reinit reinstalls the window at edge, marking every number in
// (edge-w, edge] as seen when allSeen is set and clearing the window
// otherwise. It is one pass over the ring: each 64-number block of the
// window gets its share as one whole-word mask, whatever w is — what a
// receiver's wake-up pays the window.
func (b *Bitmap) Reinit(edge uint64, allSeen bool) {
	clear(b.words)
	b.r = edge
	if !allSeen {
		return
	}
	uw := uint64(b.w)
	for s := max(edge, uw) - uw + 1; s <= edge; {
		m, next := windowMask(s, edge)
		b.words[b.wordOf(s)] |= m
		s = next
	}
}
