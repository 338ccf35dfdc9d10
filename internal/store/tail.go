package store

import "fmt"

// This file is the journal's replication surface: a Tail is the journal's
// one follower, a cursor over the committed record stream that is also part
// of the durability contract itself (a save is acknowledged only once the
// follower has applied it). Together they make a (primary journal, follower
// journal) pair behave as one logical persistent medium, which is what lets
// cluster takeover reuse the paper's wake-up protocol unchanged — FETCH
// from the follower's copy, leap, SAVE.

// TailRecord is one journal record as seen by a tailing reader. Seq is the
// journal-assigned append sequence number (dense, starting at 0); Del marks
// a tombstone, in which case Val is meaningless.
type TailRecord struct {
	Seq uint64
	Key string
	Val uint64
	Del bool
}

// Tail is the journal's follower, the shipping half of journal
// replication. Records become visible to Recv only once their group commit
// has made them durable, in append order, tombstones included — exactly the
// stream a follower journal must apply to mirror the primary's recoverable
// state.
//
// The journal keeps every record staged since Follow that the tail has not
// acknowledged, and nothing else: a follower cannot fall behind a window,
// because an unacknowledged record is an uncompleted SAVE, and a cell's
// record waits for its ack before that cell stages another. A slow follower
// slows the savers; it never loses records. Compaction rewrites the log file
// but not the record stream, so the follower observes every record exactly
// once across it.
//
// A Tail is safe for concurrent use with journal writers, but a single Tail
// must not be shared by concurrent Recv callers.
type Tail struct {
	j *Journal

	// All cursor state is guarded by j.mu.
	next    uint64 // sequence number of the next record to deliver
	ackNext uint64 // every record with seq < ackNext is applied downstream
	closed  bool

	words []uint64 // Recv's scratch: each delivered record's packed word, or 0
}

// tailRing is a ring buffer of the records a follower has not acknowledged:
// pushes are O(1) and an ack advances the head instead of memmoving the
// survivors. The backing slice is a power of two, grown on demand.
type tailRing struct {
	buf  []tailEntry // power-of-two length once allocated
	head int         // index of the logical first record
	n    int         // live records
}

// tailEntry is one record the follower has not acknowledged, its key held
// as its word; its sequence number is tailMin plus its place in the ring.
type tailEntry struct {
	w, v uint64
	del  bool
}

func (r *tailRing) push(e tailEntry) {
	if r.n == len(r.buf) { // full: double it, the records first in order
		buf := make([]tailEntry, max(64, 2*len(r.buf)))
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *tailRing) at(i int) tailEntry { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// drop releases the k oldest records.
func (r *tailRing) drop(k int) {
	r.head = (r.head + k) & (len(r.buf) - 1)
	r.n -= k
}

// Follow attaches the journal's follower, positioned at the end of the
// current stream (call Snapshot for the state later records build on), and
// makes it the sync follower: from now on a Save (or Delete) is
// acknowledged only once it is both locally durable and covered by one of
// the tail's Acks. This is what makes replication a durability property
// instead of an optimization — every sequence number an endpoint over this
// journal ever uses is bounded by a value the follower holds, so a takeover
// that wakes from the follower's copy can never reuse or re-accept one. A
// journal has at most one follower: a second Follow is refused with
// ErrSyncFollower until the first one's Close.
func (j *Journal) Follow() (*Tail, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	if j.follower != nil {
		return nil, ErrSyncFollower
	}
	j.follower = &Tail{j: j, next: j.appendSeq}
	j.tailMin = j.appendSeq
	return j.follower, nil
}

// Snapshot returns a copy of the journal's full live state (every key's
// current value; tombstoned keys are absent) and repositions the cursor so
// that Recv resumes with the first record not folded into the snapshot. The
// returned next is that resume position — after applying the snapshot the
// follower has applied everything below it and may Ack(next).
//
// The snapshot may include values whose group commit has not yet completed
// on the primary. That lead is deliberate and safe: a follower can only
// ever be ahead of the primary's durable state, never behind it, and ahead
// is the direction the wake-up leap already tolerates (a larger FETCH value
// only widens the fresh-traffic sacrifice, it can never re-accept a replay
// or reuse a sequence number).
func (t *Tail) Snapshot() (vals map[string]uint64, next uint64, err error) {
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || t.closed {
		return nil, 0, ErrClosed
	}
	vals = j.valuesInto(make(map[string]uint64, j.counts.Keys))
	t.next = j.appendSeq
	return vals, t.next, nil
}

// Recv fills buf with the next committed records and returns how many were
// delivered, blocking while none are available. It returns ErrClosed once
// the journal or the tail is closed and every remaining committed record
// has been delivered. An SA key is spelled from its word once the lane mutex
// is released, a short string per record; a named key is its interned one.
func (t *Tail) Recv(buf []TailRecord) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	j := t.j
	j.mu.Lock()
	// Close's last commit may still deliver: a closed journal ends the
	// stream once no commit is in flight.
	for !t.closed && t.next >= j.syncedSeq.Load() && (!j.closed || j.syncing) {
		j.cond.Wait()
	}
	if t.closed || t.next >= j.syncedSeq.Load() {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	t.words = t.words[:0]
	for committed := j.syncedSeq.Load(); len(t.words) < len(buf) && t.next < committed; t.next++ {
		e := j.tail.at(int(t.next - j.tailMin))
		buf[len(t.words)] = TailRecord{Seq: t.next, Val: e.v, Del: e.del}
		if e.w&namedMark != 0 {
			buf[len(t.words)].Key, e.w = j.names[e.w&^namedMark], 0
		}
		t.words = append(t.words, e.w)
	}
	j.mu.Unlock()
	var kb [spiKeyLen]byte
	for i, w := range t.words {
		if w != 0 { // packed: appendKey reads nothing of the journal
			buf[i].Key = string(j.appendKey(kb[:0], w))
		}
	}
	return len(t.words), nil
}

// Ack records that every record with sequence number below next has been
// durably applied downstream (an ack is capped at what Recv or Snapshot
// delivered). The ack is what releases the corresponding savers: their
// SAVE is complete only now, so the endpoint's notion of "committed" — and
// with it the strict durable horizon — incorporates replication. The
// journal drops the acknowledged records. Acks are monotone; a stale ack is
// ignored.
func (t *Tail) Ack(next uint64) {
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	next = min(next, t.next)
	if t.closed || next <= t.ackNext {
		return
	}
	t.ackNext = next
	if next > j.tailMin {
		j.tail.drop(int(next - j.tailMin))
		j.tailMin = next
	}
	j.cond.Broadcast()
}

// Lag returns the number of committed records the follower has not yet
// acknowledged — the replication lag in records. Zero means every durable
// record is applied downstream.
func (t *Tail) Lag() uint64 {
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if committed := j.syncedSeq.Load(); t.ackNext < committed {
		return committed - t.ackNext
	}
	return 0
}

// Close detaches the follower, releasing any savers waiting on its acks —
// use Fence first when the detachment is a promotion rather than a graceful
// shutdown, or those saves complete as merely locally-durable. The journal
// drops the records it kept for the tail, and a new Follow may attach.
func (t *Tail) Close() {
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	j.follower = nil
	j.tail.drop(j.tail.n)
	j.cond.Broadcast()
}

// Fence permanently rejects all further writes to the journal with err
// (ErrFenced when nil): appends are refused and savers already waiting are
// released with the error. A cluster promotion fences the deposed primary's
// journal so a split-brained writer cannot advance — or, worse, regress —
// counters the new primary now owns; the deposed endpoints see their saves
// fail and their strict horizon then turns further traffic into bounded
// backpressure. Fence waits for any in-flight group commit to finish, so
// after it returns the durable stream is frozen and a drain of an attached
// Tail is exhaustive.
func (j *Journal) Fence(err error) {
	if err == nil {
		err = ErrFenced
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.cond.Wait()
	}
	if j.fenceErr == nil {
		j.fenceErr = err
	}
	j.cond.Broadcast()
}

// Fenced returns the fencing error, or nil while the journal accepts writes.
func (j *Journal) Fenced() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fenceErr
}

// Values returns a copy of the journal's live state: every key's current
// value, tombstoned keys absent. Like Tail.Snapshot it may lead the durable
// state by the in-flight group commit; see there for why that lead is safe.
func (j *Journal) Values() map[string]uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.valuesInto(make(map[string]uint64, j.counts.Keys))
}

// Apply appends a batch of replicated records — the output of a Tail on
// another journal — and group-commits them under a single fsync, the
// follower half of journal replication. Records that would not change the
// recovered state (a value at or below the key's current one, or a
// tombstone for an absent key) are skipped, which keeps re-deliveries after
// a follower restart idempotent; applied records join this journal's own
// record stream with fresh sequence numbers, so replication chains
// (standby-of-standby, or failback after a promotion) compose naturally.
// Apply returns once every applied record is durable here — the caller acks
// the source only then.
func (j *Journal) Apply(recs []TailRecord) error {
	j.mu.Lock()
	if err := j.usableLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	var last uint64
	wrote := false
	for _, r := range recs {
		w := wordOf(j, r.Key)
		if w == 0 {
			j.mu.Unlock()
			return fmt.Errorf("%w: length %d", ErrBadKey, len(r.Key))
		}
		c := j.slot(w)
		if r.Del && !c.live || !r.Del && c.live && r.Val <= c.v {
			continue
		}
		last, wrote = j.stageLocked(c, r.Val, r.Del), true
	}
	if !wrote {
		j.mu.Unlock()
		return nil
	}
	// The whole batch was staged under one mutex hold, so a single commit —
	// one write, one fsync — covers it (and whatever other savers staged
	// alongside).
	return j.commitStagedLocked(last)
}
