package seqwin

import "fmt"

// Bitmap is an RFC 6479-style anti-replay window: a ring of ceil(w/64)+1
// 64-bit words holding seen-bits for sequence numbers, the window width
// plus the one spare word that lets whole words be cleared as the window
// advances (no per-bit shifting).
//
// The bit for sequence number s is bit s%64 of the word of its 64-number
// block s/64. The edge's block lives at ring slot e, and every other block
// relative to it: a block d blocks behind the edge's is at slot e-d, wrapped
// once. A number in the window is at most ceil(w/64) blocks behind, less
// than the ring size, so one compare-and-add wraps it: no DIV and no
// power-of-two mask. Words between the old and new edge are zeroed on
// advance, which keeps the invariant that every bit position in
// (edge-w, edge] faithfully records whether that sequence number has been
// accepted.
type Bitmap struct {
	words []uint64
	e     int    // ring slot of the edge's block
	r     uint64 // right edge
	w     int    // logical window width
}

var _ Window = (*Bitmap)(nil)

// NewBitmap returns a window of width w (w >= 1). The ring holds
// ceil(w/64)+1 words: the window's blocks and the spare word RFC 6479
// requires. It panics if w < 1 (programmer error).
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
	*b = Bitmap{words: make([]uint64, (w+63)/64+1), w: w}
}

// wordOf returns the ring slot of s's block; s is at most the edge and at
// most ceil(w/64) blocks behind it.
func (b *Bitmap) wordOf(s uint64) int {
	i := b.e - int(b.r/64-s/64)
	if i < 0 {
		i += len(b.words)
	}
	return i
}

func (b *Bitmap) bit(s uint64) uint64 { return uint64(1) << (s % 64) }

// Admit decides and records sequence number s.
func (b *Bitmap) Admit(s uint64) Decision {
	if staleBelow(s, b.r, b.w) {
		return DecisionStale
	}
	if s > b.r {
		b.advance(s)
		b.words[b.e] |= b.bit(s)
		return DecisionNew
	}
	wi, m := b.wordOf(s), b.bit(s)
	if b.words[wi]&m != 0 {
		return DecisionDuplicate
	}
	b.words[wi] |= m
	return DecisionInWindow
}

// advance moves the edge from b.r up to s, stepping its slot over and
// zeroing the ring words of the blocks it passes (exclusive of b.r's block,
// inclusive of s's). A jump of the ring size or more clears the ring and
// restarts it at slot 0.
func (b *Bitmap) advance(s uint64) {
	steps := s/64 - b.r/64
	b.r = s
	if steps >= uint64(len(b.words)) {
		clear(b.words)
		b.e = 0
		return
	}
	for ; steps > 0; steps-- {
		if b.e++; b.e == len(b.words) {
			b.e = 0
		}
		b.words[b.e] = 0
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
	b.r, b.e = edge, 0
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
