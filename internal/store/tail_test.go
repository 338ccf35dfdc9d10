package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/storefault"
	"antireplay/internal/watchdog"
)

// follower is a standby in miniature: it receives the journal's committed
// records, collects them and acknowledges each batch once collected, so
// saves on the journal complete as they do under a cluster standby. A save
// that has returned has its record among records().
type follower struct {
	tl   *Tail
	mu   sync.Mutex
	recs []TailRecord
	done chan struct{}
	err  error // the Recv error that ended the loop, once done is closed
}

func follow(t *testing.T, j *Journal) *follower {
	t.Helper()
	tl, err := j.Follow()
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	f := &follower{tl: tl, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		buf := make([]TailRecord, 16)
		for {
			n, err := tl.Recv(buf)
			if err != nil {
				f.err = err
				return
			}
			f.mu.Lock()
			f.recs = append(f.recs, buf[:n]...)
			f.mu.Unlock()
			tl.Ack(buf[n-1].Seq + 1)
		}
	}()
	t.Cleanup(func() { f.tl.Close(); f.wait() })
	return f
}

// records returns a copy of what the follower has collected so far.
func (f *follower) records() []TailRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]TailRecord(nil), f.recs...)
}

// wait blocks until the loop has ended and returns the error that ended it.
func (f *follower) wait() error {
	<-f.done
	return f.err
}

func TestTailStreamsCommittedRecordsInOrder(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	f := follow(t, j)

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

	got := f.records()
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

// TestTailKeepsEveryUnackedRecord: the journal keeps what its follower has
// not acknowledged, however much that is. 10,000 cells of one lane stage
// and commit while the follower receives without acking; it gets every
// record, in order, and its one Ack leaves the journal holding none.
func TestTailKeepsEveryUnackedRecord(t *testing.T) {
	watchdog.Arm(t, 30*time.Second)
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

	const cells = 10000
	var last uint64
	var lastCell *Cell
	for i := 0; i < cells; i++ {
		c := j.Cell(fmt.Sprintf("tx/%08x", i+1))
		if last, err = c.Stage(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
		lastCell = c
	}
	committed := make(chan error, 1)
	go func() { committed <- lastCell.WaitDurable(last) }()

	var got []TailRecord
	buf := make([]TailRecord, 256)
	for len(got) < cells {
		n, err := tl.Recv(buf)
		if err != nil {
			t.Fatalf("Recv after %d records: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	for i, rec := range got {
		if rec.Seq != uint64(i) || rec.Val != uint64(i+1) {
			t.Fatalf("record %d = %+v, want seq %d val %d", i, rec, i, i+1)
		}
	}
	tl.Ack(got[len(got)-1].Seq + 1)
	if err := <-committed; err != nil {
		t.Fatalf("commit: %v", err)
	}
	j.mu.Lock()
	kept := j.tail.n
	j.mu.Unlock()
	if kept != 0 {
		t.Fatalf("journal keeps %d records after the follower acked them all", kept)
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

	f := follow(t, j)

	const saves = 200
	for i := 1; i <= saves; i++ {
		if err := j.Cell("x").Save(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.stats().Compactions == 0 {
		t.Fatal("workload did not trigger compaction; shrink CompactAt")
	}

	got := f.records()
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
// The filesystem records each step, so a skipped fsync shows even where the
// Syncs counter still counts it.
func TestJournalCompactionDirFsync(t *testing.T) {
	rec := &opRecorder{FS: storefault.OS()}
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesCompactAt(256), LanesWithFS(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	for i := 1; j.stats().Compactions == 0; i++ {
		if i > 10000 {
			t.Fatal("workload did not trigger compaction")
		}
		before := j.stats().Syncs
		if err := j.Cell("x").Save(uint64(i)); err != nil {
			t.Fatal(err)
		}
		if j.stats().Compactions == 1 {
			// The compacting save must have issued exactly the bar's two
			// fsyncs: the temp snapshot file and the parent directory.
			// (No group-commit fsync joins it: compaction subsumes it.)
			if got := j.stats().Syncs - before; got != 2 {
				t.Fatalf("compaction issued %d fsyncs, want 2 (temp file + parent dir)", got)
			}
		}
	}
	ops := rec.ops()
	renamed := -1
	var tmp string
	for i, op := range ops {
		if op.kind == "rename" && op.to == j.path {
			renamed, tmp = i, op.path
		}
	}
	if renamed < 0 {
		t.Fatalf("compaction renamed nothing over the log: %v", ops)
	}
	synced := false
	for _, op := range ops[:renamed] {
		synced = synced || op == (fsOp{kind: "sync", path: tmp})
	}
	if !synced {
		t.Errorf("temp file %s not fsynced before its rename: %v", tmp, ops)
	}
	dirSynced := false
	for _, op := range ops[renamed+1:] {
		dirSynced = dirSynced || op == (fsOp{kind: "syncdir", path: filepath.Dir(j.path)})
	}
	if !dirSynced {
		t.Errorf("parent directory not fsynced after the rename: %v", ops)
	}

	// And the compacted state must actually be what a reopen recovers.
	last := j.Values()["x"]
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := openLane(j.path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if v, ok, _ := j2.Cell("x").Fetch(); !ok || v != last {
		t.Fatalf("reopen after compaction: x = %d,%v, want %d,true", v, ok, last)
	}
}

// opRecorder is a filesystem that records every file fsync, rename and
// directory fsync, in order.
type opRecorder struct {
	storefault.FS
	mu  sync.Mutex
	log []fsOp
}

type fsOp struct{ kind, path, to string }

func (r *opRecorder) add(op fsOp) {
	r.mu.Lock()
	r.log = append(r.log, op)
	r.mu.Unlock()
}

func (r *opRecorder) ops() []fsOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]fsOp(nil), r.log...)
}

func (r *opRecorder) OpenFile(name string, flag int, perm os.FileMode) (storefault.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return recordedFile{f, r}, nil
}

func (r *opRecorder) CreateTemp(dir, pattern string) (storefault.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return recordedFile{f, r}, nil
}

func (r *opRecorder) Rename(oldpath, newpath string) error {
	r.add(fsOp{kind: "rename", path: oldpath, to: newpath})
	return r.FS.Rename(oldpath, newpath)
}

func (r *opRecorder) SyncDir(dir string) error {
	r.add(fsOp{kind: "syncdir", path: dir})
	return r.FS.SyncDir(dir)
}

type recordedFile struct {
	storefault.File
	r *opRecorder
}

func (f recordedFile) Sync() error {
	f.r.add(fsOp{kind: "sync", path: f.Name()})
	return f.File.Sync()
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
	buf := make([]TailRecord, 4)
	if n, err := tl.Recv(buf); err != nil || n != 1 || buf[0].Val != 7 {
		t.Errorf("drain after fence = %v, %v, want the one record", buf[:n], err)
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
	before := j.stats().Appends
	if err := j.Apply(final); err != nil {
		t.Fatal(err)
	}
	if j.stats().Appends != before {
		t.Errorf("no-op apply appended %d records", j.stats().Appends-before)
	}
	// A malformed replicated key is refused, even where it would be a
	// no-op, and is never interned.
	names := len(j.names)
	if err := j.Apply([]TailRecord{{Key: "", Del: true}}); !errors.Is(err, ErrBadKey) {
		t.Errorf("Apply of an empty key = %v, want ErrBadKey", err)
	}
	if len(j.names) != names {
		t.Errorf("Apply interned a refused key: %d names, want %d", len(j.names), names)
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

	f := follow(t, src)

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

	if err := dst.Apply(f.records()); err != nil {
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
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Follow(); !errors.Is(err, ErrSyncFollower) {
		t.Errorf("second Follow = %v, want ErrSyncFollower", err)
	}
	// Closing the follower clears the role; a successor can then attach
	// (the failback path).
	tl.Close()
	tl2, err := j.Follow()
	if err != nil {
		t.Fatalf("Follow after close: %v", err)
	}
	tl2.Close()
}

func TestTailRecvAfterJournalClose(t *testing.T) {
	watchdog.Arm(t, 10*time.Second)
	j, err := openLane(filepath.Join(t.TempDir(), "j.log"), LanesWithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	f := follow(t, j)
	if err := j.Cell("a").Save(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The committed record was delivered, then ErrClosed.
	if err := f.wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
	if got := f.records(); len(got) != 1 || got[0].Val != 1 {
		t.Fatalf("records before close = %v, want a=1", got)
	}
	if _, err := j.Follow(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Follow after close = %v, want ErrClosed", err)
	}

	// Close commits a staged record through the commit path, which releases
	// the mutex for its fsync: a Recv landing then must wait for that commit
	// and deliver the record, not report ErrClosed with it unsent.
	watchdog.Arm(t, 10*time.Second)
	g := syncGate{FS: storefault.OS(), armed: new(atomic.Bool), entered: make(chan struct{}), release: make(chan struct{})}
	if j, err = openLane(filepath.Join(t.TempDir(), "held.log"), LanesWithFS(g)); err != nil {
		t.Fatal(err)
	}
	tl, err := j.Follow()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]TailRecord, 4)
	if _, err := j.Cell("b").Stage(2); err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	<-g.entered
	go func() {
		time.Sleep(10 * time.Millisecond) // let Recv reach its wait first
		close(g.release)
	}()
	if n, err := tl.Recv(buf); err != nil || n != 1 || buf[0].Val != 2 {
		t.Fatalf("Recv during Close's last commit = %d,%v, want the staged record", n, err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// syncGate is a filesystem whose file fsyncs, once armed, announce
// themselves on entered and wait for release.
type syncGate struct {
	storefault.FS
	armed            *atomic.Bool
	entered, release chan struct{}
}

func (g syncGate) OpenFile(name string, flag int, perm os.FileMode) (storefault.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	storefault.File
	g syncGate
}

func (f gatedFile) Sync() error {
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}
