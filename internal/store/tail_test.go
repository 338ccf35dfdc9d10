package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"antireplay/internal/watchdog"
)

// drainTail pulls every currently-pending committed record from t.
func drainTail(t *testing.T, tl *Tail) []TailRecord {
	t.Helper()
	var out []TailRecord
	buf := make([]TailRecord, 16)
	for {
		n, err := tl.TryRecv(buf)
		if err != nil {
			t.Fatalf("TryRecv: %v", err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestTailStreamsCommittedRecordsInOrder(t *testing.T) {
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	if err := j.Cell("a").Save(10); err != nil {
		t.Fatal(err)
	}
	if err := j.Cell("b").Save(20); err != nil {
		t.Fatal(err)
	}
	if err := j.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := j.Cell("a").Save(3); err != nil {
		t.Fatal(err)
	}

	got := drainTail(t, tl)
	want := []TailRecord{
		{Seq: 0, Key: "a", Val: 10},
		{Seq: 1, Key: "b", Val: 20},
		{Seq: 2, Key: "a", Del: true},
		{Seq: 3, Key: "a", Val: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("received %d records %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTailSnapshotThenTailAfterLag(t *testing.T) {
	// A 4-record window guarantees a reader attached from the start lags
	// out; it must resynchronize by snapshot and still converge on the
	// journal's exact live state.
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"),
		LanesWithoutSync(), func(c *lanesConfig) { c.tailCap = 4 })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i%8)
		if err := j.Cell(key).Save(uint64(100 + i)); err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]TailRecord, 8)
	if _, err := tl.Recv(buf); !errors.Is(err, ErrTailLagged) {
		t.Fatalf("Recv after lag = %v, want ErrTailLagged", err)
	}

	// Snapshot-then-tail: the snapshot plus the remaining stream must
	// reproduce the journal state exactly.
	state, next, err := tl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Cell("k1").Save(500); err != nil {
		t.Fatal(err)
	}
	for _, rec := range drainTail(t, tl) {
		if rec.Seq < next {
			t.Errorf("record %d delivered although folded into the snapshot", rec.Seq)
		}
		if rec.Del {
			delete(state, rec.Key)
		} else if rec.Val > state[rec.Key] {
			state[rec.Key] = rec.Val
		}
	}
	want := j.Values()
	if len(state) != len(want) {
		t.Fatalf("follower state has %d keys, want %d", len(state), len(want))
	}
	for k, v := range want {
		if state[k] != v {
			t.Errorf("follower %s = %d, want %d", k, state[k], v)
		}
	}
}

func TestTailSurvivesCompaction(t *testing.T) {
	// Compaction rewrites the log file under an attached reader; the
	// logical record stream must be undisturbed: every record before and
	// after the compaction arrives exactly once.
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"),
		LanesWithoutSync(), LanesCompactAt(256))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	const saves = 200
	for i := 1; i <= saves; i++ {
		if err := j.Cell("x").Save(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Compactions() == 0 {
		t.Fatal("workload did not trigger compaction; shrink CompactAt")
	}

	got := drainTail(t, tl)
	if len(got) != saves {
		t.Fatalf("received %d records across compaction, want %d", len(got), saves)
	}
	for i, rec := range got {
		if rec.Seq != uint64(i) || rec.Val != uint64(i+1) {
			t.Fatalf("record %d = %+v, want seq %d val %d", i, rec, i, i+1)
		}
	}
}

// TestJournalCompactionDirFsync is the regression test for the compaction
// durability bar: the compacted log must be written to a temp file, fsynced,
// renamed over the log, and the parent directory fsynced — without the final
// directory sync a power loss can roll the directory entry back to the old
// (now-deleted) inode after compaction already reported the state durable.
func TestJournalCompactionDirFsync(t *testing.T) {
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesCompactAt(256))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	for i := 1; j.Compactions() == 0; i++ {
		if i > 10000 {
			t.Fatal("workload did not trigger compaction")
		}
		before := j.Syncs()
		if err := j.Cell("x").Save(uint64(i)); err != nil {
			t.Fatal(err)
		}
		if j.Compactions() == 1 {
			// The compacting save must have issued exactly the bar's two
			// fsyncs: the temp snapshot file and the parent directory.
			// (No group-commit fsync joins it: compaction subsumes it.)
			if got := j.Syncs() - before; got != 2 {
				t.Fatalf("compaction issued %d fsyncs, want 2 (temp file + parent dir)", got)
			}
		}
	}

	// And the compacted state must actually be what a reopen recovers.
	last := j.Values()["x"]
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := openLane(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if v, ok, _ := j2.Cell("x").Fetch(); !ok || v != last {
		t.Fatalf("reopen after compaction: x = %d,%v, want %d,true", v, ok, last)
	}
}

func TestSyncFollowerGatesSaves(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if err := j.SyncFollower(tl); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- j.Cell("a").Save(7) }()

	// The save must not complete before the follower acks it.
	select {
	case err := <-done:
		t.Fatalf("save completed without a follower ack (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}

	buf := make([]TailRecord, 4)
	n, err := tl.Recv(buf)
	if err != nil || n != 1 {
		t.Fatalf("Recv = %d, %v", n, err)
	}
	tl.Ack(buf[n-1].Seq + 1)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("save after ack: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("save still blocked after the follower ack")
	}
}

// TestTailCloseReleasesSyncWaiters: closing the registered sync follower
// degrades to local-only durability and lets go of every saver blocked on
// its acks.
func TestTailCloseReleasesSyncWaiters(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if err := j.SyncFollower(tl); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Cell("a").Save(7) }()
	time.Sleep(10 * time.Millisecond)
	tl.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("save after the follower closed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("save still blocked after the follower closed")
	}
}

func TestFenceRejectsWritesAndReleasesWaiters(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if err := j.SyncFollower(tl); err != nil {
		t.Fatal(err)
	}

	// A save waiting on a replication ack is released with the fence error.
	done := make(chan error, 1)
	go func() { done <- j.Cell("a").Save(7) }()
	time.Sleep(10 * time.Millisecond)
	j.Fence(nil)
	select {
	case err := <-done:
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("pending save after fence = %v, want ErrFenced", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending save not released by the fence")
	}

	// New writes are refused outright; reads still work; the durable
	// stream stays drainable.
	if err := j.Cell("b").Save(1); !errors.Is(err, ErrFenced) {
		t.Errorf("save on fenced journal = %v, want ErrFenced", err)
	}
	if err := j.Delete("a"); !errors.Is(err, ErrFenced) {
		t.Errorf("delete on fenced journal = %v, want ErrFenced", err)
	}
	if err := j.Fenced(); !errors.Is(err, ErrFenced) {
		t.Errorf("Fenced() = %v, want ErrFenced", err)
	}
	if v, ok, err := j.Cell("a").Fetch(); err != nil || !ok || v != 7 {
		t.Errorf("fetch on fenced journal = %d,%v,%v; want 7,true,nil", v, ok, err)
	}
	if got := drainTail(t, tl); len(got) != 1 || got[0].Val != 7 {
		t.Errorf("drain after fence = %v, want the one record", got)
	}
}

func TestApplyIsIdempotentAndBatched(t *testing.T) {
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	batch := []TailRecord{
		{Seq: 0, Key: "a", Val: 10},
		{Seq: 1, Key: "b", Val: 20},
		{Seq: 2, Key: "a", Del: true},
		{Seq: 3, Key: "a", Val: 5},
	}
	if err := j.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if got := j.Values(); got["a"] != 5 || got["b"] != 20 {
		t.Fatalf("values after apply = %v, want a=5 b=20", got)
	}
	// Re-delivery after a follower restart converges on the same state:
	// the in-order replay (max within a life, tombstone starts a fresh
	// life) is exactly what journal recovery computes.
	if err := j.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if got := j.Values(); got["a"] != 5 || got["b"] != 20 {
		t.Fatalf("values after re-apply = %v, want a=5 b=20", got)
	}

	// The canonical idempotency case: re-applying a batch that ends in the
	// key's final state is a pure no-op.
	final := []TailRecord{{Key: "b", Val: 20}}
	before := j.Appends()
	if err := j.Apply(final); err != nil {
		t.Fatal(err)
	}
	if j.Appends() != before {
		t.Errorf("no-op apply appended %d records", j.Appends()-before)
	}
}

func TestApplyMirrorsTombstoneLifecycle(t *testing.T) {
	dir := t.TempDir()
	src, err := openLane(filepath.Join(dir, "src.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := openLane(filepath.Join(dir, "dst.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	tl, err := src.Follow()
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	// A full key life on the source: grow, retire, fresh life at a LOWER
	// value — the case max-wins recovery alone would get wrong without
	// ordered tombstones.
	if err := src.Cell("k").Save(1000); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := src.Cell("k").Save(3); err != nil {
		t.Fatal(err)
	}

	if err := dst.Apply(drainTail(t, tl)); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := dst.Cell("k").Fetch(); !ok || v != 3 {
		t.Fatalf("follower k = %d,%v, want 3,true (fresh life after tombstone)", v, ok)
	}

	// And the applied stream must survive the follower's own recovery.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openLane(filepath.Join(dir, "dst.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, ok, _ := re.Cell("k").Fetch(); !ok || v != 3 {
		t.Fatalf("follower reopen k = %d,%v, want 3,true", v, ok)
	}
}

func TestSyncFollowerRegistrationRules(t *testing.T) {
	dir := t.TempDir()
	j, err := openLane(filepath.Join(dir, "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	other, err := openLane(filepath.Join(dir, "other.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	ot, err := other.Follow()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SyncFollower(ot); !errors.Is(err, ErrBadTail) {
		t.Errorf("foreign tail registration = %v, want ErrBadTail", err)
	}
	if err := j.SyncFollower(tl); err != nil {
		t.Fatal(err)
	}
	tl2, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SyncFollower(tl2); !errors.Is(err, ErrSyncFollower) {
		t.Errorf("second sync follower = %v, want ErrSyncFollower", err)
	}
	// Closing the registered follower clears the role; a successor can then
	// register (the failback path).
	tl.Close()
	if err := j.SyncFollower(tl2); err != nil {
		t.Errorf("re-registration after close: %v", err)
	}
}

func TestTailRecvAfterJournalClose(t *testing.T) {
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Cell("a").Save(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The committed record is still delivered, then ErrClosed.
	buf := make([]TailRecord, 4)
	n, err := tl.Recv(buf)
	if err != nil || n != 1 || buf[0].Val != 1 {
		t.Fatalf("Recv after close = %d,%v", n, err)
	}
	if _, err := tl.Recv(buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Recv after close = %v, want ErrClosed", err)
	}
	if _, err := j.Follow(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Follow after close = %v, want ErrClosed", err)
	}
}
