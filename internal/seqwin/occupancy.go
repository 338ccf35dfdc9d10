package seqwin

import "math/bits"

// Occupier is the optional interface a window implements when it can
// report how many numbers inside (edge-w, edge] are currently marked seen.
// Occupancy is a diagnostic gauge: a nearly full window under loss-free
// in-order traffic is healthy, a sparse one betrays loss or reordering,
// and a full window immediately after a wake betrays the paper's
// mark-all-seen reinstall.
type Occupier interface {
	Occupancy() int
}

var _ Occupier = (*Bitmap)(nil)

// windowMask returns the bitmask selecting the in-window bits of the
// 64-number block containing s, for a window spanning [lo, hi]: bits
// s%64 .. min(hi, blockEnd)%64. s must lie in [lo, hi] and in the block.
func windowMask(s, hi uint64) (mask uint64, next uint64) {
	blockEnd := s/64*64 + 63
	if blockEnd < hi {
		hi = blockEnd
	}
	width := hi - s + 1
	if width >= 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1)<<width - 1) << (s % 64)
	}
	return mask, hi + 1
}

// Occupancy counts the seen-marked numbers in (edge-w, edge]. Exact: ring
// words can retain set bits for numbers that have slid below the window
// (they are only zeroed when the edge passes over the whole word), so the
// count masks each word down to its in-window span.
func (b *Bitmap) Occupancy() int {
	if b.r == 0 {
		return 0
	}
	lo := uint64(1)
	if b.r > uint64(b.w) {
		lo = b.r - uint64(b.w) + 1
	}
	n := 0
	for s := lo; s <= b.r; {
		mask, next := windowMask(s, b.r)
		n += bits.OnesCount64(b.words[b.wordOf(s)] & mask)
		s = next
	}
	return n
}
