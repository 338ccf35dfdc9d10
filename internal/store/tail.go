package store

import "fmt"

// This file is the journal's replication surface: a Tail is a cursor over
// the committed record stream, and the sync-follower registration turns an
// attached Tail into part of the durability contract itself (a save is
// acknowledged only once the follower has applied it). Together they make a
// (primary journal, follower journal) pair behave as one logical persistent
// medium, which is what lets cluster takeover reuse the paper's wake-up
// protocol unchanged — FETCH from the follower's copy, leap, SAVE.

// TailRecord is one journal record as seen by a tailing reader. Seq is the
// journal-assigned append sequence number (dense, starting at 0); Del marks
// a tombstone, in which case Val is meaningless.
type TailRecord struct {
	Seq uint64
	Key string
	Val uint64
	Del bool
}

// Tail is a cursor over a Journal's committed record stream, the shipping
// half of journal replication. Records become visible to Recv only once
// their group commit has made them durable, in append order, tombstones
// included — exactly the stream a follower journal must apply to mirror the
// primary's recoverable state.
//
// The journal retains a bounded in-memory window of recent records (see
// DefaultTailBuffer). A reader that falls behind the window — or that
// attaches fresh — resynchronizes by snapshot-then-tail: Recv reports
// ErrTailLagged, the reader calls Snapshot (the full live state plus the
// cursor position that stream resumes from), applies it, and tails on. The
// same path survives compaction: compaction rewrites the log file but never
// disturbs the logical record stream or the retained window, so an attached
// Tail observes every record exactly once across it.
//
// A Tail is safe for concurrent use with journal writers, but a single Tail
// must not be shared by concurrent Recv callers.
type Tail struct {
	j *Journal

	// All cursor state is guarded by j.mu.
	next    uint64 // sequence number of the next record to deliver
	ackNext uint64 // every record with seq < ackNext is applied downstream
	closed  bool
}

// Follow attaches a new tailing reader positioned at the end of the current
// stream: only records appended after the call will be received. Call
// Snapshot first to obtain the state those future records build on.
func (j *Journal) Follow() (*Tail, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	t := &Tail{j: j, next: j.appendSeq}
	if j.tails == nil {
		j.tails = make(map[*Tail]bool)
	}
	j.tails[t] = true
	return t, nil
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
	vals = j.valuesInto(make(map[string]uint64, len(j.vals)))
	t.next = j.appendSeq
	return vals, t.next, nil
}

// Recv fills buf with the next committed records and returns how many were
// delivered, blocking while none are available. It returns ErrTailLagged
// when the cursor has fallen behind the journal's retained record window
// (resynchronize with Snapshot), and ErrClosed once the journal or the tail
// is closed and every remaining committed record has been delivered.
func (t *Tail) Recv(buf []TailRecord) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		n, err := t.recvLocked(buf)
		if n > 0 || err != nil {
			return n, err
		}
		if j.closed && !j.syncing { // Close's last commit may still deliver
			return 0, ErrClosed
		}
		j.cond.Wait()
	}
}

// TryRecv is the non-blocking Recv: it fills buf with whatever committed
// records are immediately available and returns 0 instead of waiting. A
// follower uses it to drain the stream in gulps — one blocking Recv, then
// TryRecv until empty — so a whole burst of group commits is applied and
// acknowledged as one batch.
func (t *Tail) TryRecv(buf []TailRecord) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	return t.recvLocked(buf)
}

// recvLocked copies out up to len(buf) committed records at the cursor.
func (t *Tail) recvLocked(buf []TailRecord) (int, error) {
	j := t.j
	if t.closed {
		return 0, ErrClosed
	}
	if t.next < j.tailMin {
		return 0, ErrTailLagged
	}
	n := 0
	committed := j.syncedSeq.Load()
	for n < len(buf) && t.next < committed && int(t.next-j.tailMin) < j.tail.n {
		buf[n] = j.tail.at(int(t.next - j.tailMin))
		t.next++
		n++
	}
	return n, nil
}

// Ack records that every record with sequence number below next has been
// durably applied downstream. When this tail is the journal's registered
// sync follower (SyncFollower), the ack is what releases the corresponding
// savers: their SAVE is complete only now, so the endpoint's notion of
// "committed" — and with it the strict durable horizon — incorporates
// replication. Acks are monotone; a stale ack is ignored.
func (t *Tail) Ack(next uint64) {
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if next > t.ackNext {
		t.ackNext = next
		if j.syncTail == t {
			j.cond.Broadcast()
		}
	}
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

// Close detaches the reader. If it was the journal's sync follower the
// registration is cleared, releasing any savers waiting on its acks — use
// Fence first when the detachment is a promotion rather than a graceful
// shutdown, or those saves complete as merely locally-durable.
func (t *Tail) Close() {
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	delete(j.tails, t)
	if j.syncTail == t {
		j.syncTail = nil
	}
	if len(j.tails) == 0 && j.tail.n > 0 {
		// Last reader gone: release the retained window (staging stops
		// refilling it until someone follows again).
		j.tail.drop(j.tail.n)
		j.tailMin = j.appendSeq
	}
	j.cond.Broadcast()
}

// SyncFollower registers t as the journal's synchronous follower: from now
// on a Save (or Delete) is acknowledged only once it is both locally
// durable and covered by one of t's Acks. This is what makes replication a
// durability property instead of an optimization — every sequence number an
// endpoint over this journal ever uses is bounded by a value the follower
// holds, so a takeover that wakes from the follower's copy can never reuse
// or re-accept one. At most one sync follower can be registered; passing a
// tail of a different journal or re-registering over a live one is refused.
func (j *Journal) SyncFollower(t *Tail) error {
	if t == nil || t.j != j {
		return ErrBadTail
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if t.closed {
		return ErrBadTail
	}
	if j.syncTail != nil && j.syncTail != t {
		return ErrSyncFollower
	}
	j.syncTail = t
	return nil
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
	return j.valuesInto(make(map[string]uint64, len(j.vals)))
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
	var arr [96]byte
	var last uint64
	wrote := false
	for _, r := range recs {
		if len(r.Key) == 0 || len(r.Key) > journalMaxKey {
			j.mu.Unlock()
			return fmt.Errorf("%w: length %d", ErrBadKey, len(r.Key))
		}
		w := wordOf(j, r.Key) // after the check: a bad key is never interned
		if cur, seen := j.vals[w]; r.Del && !seen || !r.Del && seen && r.Val <= cur {
			continue
		}
		var rec []byte
		if n := 2 + 8 + len(r.Key) + 4; n <= len(arr) {
			rec = appendRecord(arr[:0], r.Key, r.Val, r.Del)
		} else {
			rec = appendRecord(make([]byte, 0, 2+8+len(r.Key)+4), r.Key, r.Val, r.Del)
		}
		last, wrote = j.stageLocked(w, r.Key, r.Val, r.Del, rec), true
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
