package stats

import (
	"sync/atomic"
	"unsafe"
)

// counterStripes is the number of independent cells in a ShardedCounter
// (a power of two so the stripe pick is a mask).
const counterStripes = 16

// stripe is one cell of a ShardedCounter, padded to its own cache line so
// concurrent adds on different stripes never false-share.
type stripe struct {
	v atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a goroutine-safe monotone event count built for
// per-packet hot paths: Add spreads increments over cache-line-padded
// stripes so a counter shared by every admission or seal on a gateway does
// not itself become the contended line that serializes the datapath — the
// fate of a single atomic.Uint64 once enough cores increment it. Value sums
// the stripes; like any concurrent counter read it is a moment-in-time
// snapshot, exact once writers quiesce.
//
// The zero value is a counter at 0, ready for use.
type ShardedCounter struct {
	s [counterStripes]stripe
}

// Add increments the counter by d. The stripe is picked from the address of
// the call's own stack slot: goroutine stacks live in distinct allocations,
// so concurrent callers land on distinct stripes with high probability. The
// pick is load-spreading only — any interleaving of stripes is correct.
func (c *ShardedCounter) Add(d uint64) {
	p := uintptr(unsafe.Pointer(&d))
	c.s[(p>>6^p>>14)&(counterStripes-1)].v.Add(d)
}

// Value returns the current sum of all stripes.
func (c *ShardedCounter) Value() uint64 {
	var t uint64
	for i := range c.s {
		t += c.s[i].v.Load()
	}
	return t
}

// TallyLanes is the number of counters a Tallies block holds.
const TallyLanes = 4

// tallyStripe is one cache line of a Tallies block: all four lanes of one
// stripe share the line, because they are bumped by the same fast-path
// event — one admission dirties one line whether it increments one lane or
// three, where four separate ShardedCounters would dirty four.
type tallyStripe struct {
	v [TallyLanes]atomic.Uint64
	_ [64 - 8*TallyLanes]byte
}

// Tallies packs up to TallyLanes related per-event counters into ONE
// sharded block. It keeps ShardedCounter's contention behavior (stripes are
// cache-line padded, concurrent adders spread across them) at a quarter of
// the memory: one block is 1 KiB where four ShardedCounters are 4 KiB —
// the difference between 1 KiB and 4 KiB of tallies per SA is measured in
// gigabytes at million-SA scale. Lane indices are the caller's enum.
//
// The zero value is all lanes at 0, ready for use.
type Tallies struct {
	s [counterStripes]tallyStripe
}

// Add increments lane by d; the stripe pick matches ShardedCounter.Add.
func (t *Tallies) Add(lane int, d uint64) {
	p := uintptr(unsafe.Pointer(&d))
	t.s[(p>>6^p>>14)&(counterStripes-1)].v[lane].Add(d)
}

// Value returns the current sum of lane across all stripes.
func (t *Tallies) Value(lane int) uint64 {
	var sum uint64
	for i := range t.s {
		sum += t.s[i].v[lane].Load()
	}
	return sum
}
