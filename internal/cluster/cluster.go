// Package cluster makes a gateway highly available by turning the paper's
// reset protocol into a failover protocol: a standby node mirrors the
// primary's durable counter state through journal replication, and takeover
// is nothing more than the paper's wake-up — FETCH every counter from the
// replica, leap, SAVE — executed on the standby's warm gateway image.
//
// The design rests on one observation: the paper's guarantees (no sequence
// reuse, no replay acceptance, bounded fresh-traffic sacrifice) are proved
// against whatever medium SAVE and FETCH share. Replication therefore does
// not need new protocol machinery; it needs the pair (primary journal,
// follower journal) to BE that medium. The package arranges exactly that:
//
//   - The standby tails the primary journal's committed record stream
//     (store.Journal.Follow — snapshot-then-tail, tombstones included) and
//     applies it to its own journal in group-committed batches.
//   - The tail is registered as the primary journal's sync follower, so a
//     SAVE completes only once the standby has applied it. The endpoints'
//     "committed" — and with it the strict durable horizon that bounds
//     every sequence number they hand out or deliver — then incorporates
//     replication: every number that ever existed is below some value the
//     standby holds, plus the leap. Waking from the standby's journal is
//     therefore exactly as safe as waking from the primary's own disk.
//   - Failover loss is bounded by replication lag, not by local-disk
//     staleness: the false-reject window after takeover is (applied + leap)
//     − (edge at crash), which the replication gauges bound. Compare a cold
//     restart of the primary itself, whose window is governed by the
//     group-commit batching delay of its own disk.
//
// Split brain is handled by epoch fencing. Promotion (1) fences the deposed
// primary's journal — its writes are rejected from the moment of takeover,
// and even a partitioned primary that cannot be fenced explicitly stalls
// within one horizon, because its saves can no longer be acknowledged
// without the standby's acks — and (2) durably bumps a monotone epoch
// (EpochKey) in the new primary's journal. A replication stream from a
// lower epoch is refused (ErrFenced), so a deposed primary can neither feed
// a standby nor regress counters it no longer owns. Failback runs the same
// machinery in reverse: the old node re-syncs as a standby of the new
// primary (snapshot-then-tail reconciles its stale journal, max-wins
// keeping any residual higher counters, which errs toward extra sacrifice
// and never toward replay), then takes over at epoch+1.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"antireplay/internal/ipsec"
	"antireplay/internal/stats"
	"antireplay/internal/store"
)

// EpochKey is the journal key of the cluster epoch: a monotone counter
// bumped durably by every takeover. It shares the journal with the SA
// counters (the tx/ and rx/ namespaces) and replicates like any other key.
const EpochKey = "cluster/epoch"

// Sentinel errors.
var (
	// ErrConfig reports an invalid standby configuration.
	ErrConfig = errors.New("cluster: invalid configuration")
	// ErrFenced reports a replication stream from a deposed primary: the
	// source's epoch is below the local journal's, so applying it could
	// regress counters the current primary owns.
	ErrFenced = errors.New("cluster: replication source fenced (stale epoch)")
	// ErrPromoted reports use of a standby that has already taken over.
	ErrPromoted = errors.New("cluster: standby already promoted")
	// ErrNotRunning reports a Takeover before Start.
	ErrNotRunning = errors.New("cluster: standby not running")
)

// batchMax bounds records per receive from the source's tail. The
// replication loop coalesces consecutive receives that are already
// committed, so one apply batch — one follower group commit and one Ack —
// covers up to 4*batchMax records.
const batchMax = 256

// Config parameterizes a Standby.
type Config struct {
	// Source is the primary's durable medium — the replication source.
	// Required.
	Source *store.Lanes
	// Journal is the standby's own (follower) medium, the one a takeover
	// wakes from. It must have the same number of commit lanes as Source —
	// replication runs lane-to-lane, so the key-to-lane hash must agree on
	// both sides. Required.
	Journal *store.Lanes
	// K, W, ESN, Lifetime and Clock configure the warm gateway image
	// exactly as ipsec.GatewayConfig does; they should match the primary's
	// settings.
	K        uint64
	W        int
	ESN      bool
	Lifetime ipsec.Lifetime
	Clock    func() time.Duration
	// OnPromote, when set, is called during Takeover inside the wake
	// window — after the deposed primary is fenced and the epoch durably
	// bumped, immediately before the standby's gateway image wakes. It
	// receives the new epoch. This is the cluster's most delicate
	// instant, which is exactly why it is exposed: the adversary
	// campaign layer (internal/adversary.BlackoutFlood) injects its
	// recorded-traffic burst here, and operators hook promotion alerts
	// here. The callback runs synchronously on the takeover path; keep
	// it fast, and do not call back into the Standby.
	OnPromote func(epoch uint64)
	// OnLifecycle is passed through to the warm gateway image's
	// ipsec.GatewayConfig.OnLifecycle, so the takeover's population-wide
	// wake shows up in the same lifecycle stream as the deposed
	// primary's reset.
	OnLifecycle func(kind string, sas int)
}

// ReplicationStats is a snapshot of a standby's replication progress.
type ReplicationStats struct {
	// AppliedRecords counts records durably applied to the follower
	// journal (snapshot reconciliations not included).
	AppliedRecords uint64
	// SnapshotLoads counts snapshot-then-tail resynchronizations: the
	// initial attach plus every ErrTailLagged recovery (e.g. across a
	// retained-window overrun).
	SnapshotLoads uint64
	// LagRecords is the instantaneous replication lag in records:
	// committed on the primary, not yet acknowledged by this standby.
	// It is recomputed from the tails at snapshot time, NOT read from a
	// gauge the apply loop updates — a follower whose loops have died
	// shows its true, growing lag even though nothing is applying.
	LagRecords uint64
	// LastAckAge is how long ago the stalest lane last acknowledged
	// anything (attachment counts as an ack). An idle healthy follower's
	// age grows too — the liveness signal is age combined with
	// LagRecords: lag pending AND an old ack means the follower is dead,
	// not idle.
	LastAckAge time.Duration
	// SourceEpoch is the highest cluster epoch observed from the source.
	SourceEpoch uint64
	// Err is the terminal replication error, if the stream has stopped.
	Err error
}

// Standby replicates a primary journal into a local one and keeps a warm,
// down-state gateway image ready for promotion. Takeover fences the source,
// drains the stream, bumps the epoch, and wakes the image — the paper's
// recovery, pointed at the replica. Safe for concurrent use.
type Standby struct {
	cfg   Config
	gw    *ipsec.Gateway
	lanes []*laneRepl

	applied   stats.Counter
	snapshots stats.Counter

	// op serializes the control-plane operations that act on the gateway
	// image — Mirror and Takeover — so a mirror can never run Adopt on an
	// already-promoted (live) gateway.
	op sync.Mutex

	mu         sync.Mutex
	started    bool
	promoted   bool
	stopped    bool
	runErr     error
	localEpoch uint64 // fencing floor: sources below this are stale
	srcEpoch   uint64 // highest epoch seen from the source
	done       chan struct{}
	wg         sync.WaitGroup
}

// laneRepl replicates one commit lane: the source lane's tail applied into
// the same-numbered follower lane. Lanes replicate independently — each has
// its own replication goroutine, sync-follower registration, and lag gauge
// — so one lane's apply fsync never delays another lane's acks, and the
// cluster's save-to-ack throughput scales with the lane parallelism the
// medium already provides locally.
type laneRepl struct {
	s   *Standby
	idx int
	src *store.Journal
	dst *store.Journal
	tl  *store.Tail
	// lastAck is the wall-clock time (UnixNano) of this lane's most
	// recent Ack — attachment stamps it too, so age is "since attach"
	// until the first batch lands. Stats derives last_ack_age from it.
	lastAck atomic.Int64
}

// ack forwards the cursor to the source and stamps the ack time.
func (l *laneRepl) ack(next uint64) {
	l.tl.Ack(next)
	l.lastAck.Store(time.Now().UnixNano())
}

// journalEpoch reads a medium's cluster epoch (0 when never set).
func journalEpoch(m *store.Lanes) uint64 {
	v, ok, err := m.Cell(EpochKey).Fetch()
	if err != nil || !ok {
		return 0
	}
	return v
}

// NewStandby validates cfg, builds the warm gateway image over the follower
// journal, attaches a tail to the source, and registers it as the source's
// sync follower — from this moment the primary's saves complete only when
// this standby has applied them. Replication does not flow until Start.
//
// The attachment is refused with ErrFenced when the source's epoch is below
// the follower journal's: that shape means the "primary" is a deposed node
// and this journal already lived under a newer one.
func NewStandby(cfg Config) (*Standby, error) {
	if cfg.Source == nil || cfg.Journal == nil {
		return nil, fmt.Errorf("%w: source and follower journals required", ErrConfig)
	}
	if cfg.Source == cfg.Journal {
		return nil, fmt.Errorf("%w: a journal cannot follow itself", ErrConfig)
	}
	srcLanes := cfg.Source.LaneJournals()
	dstLanes := cfg.Journal.LaneJournals()
	if len(srcLanes) != len(dstLanes) {
		return nil, fmt.Errorf("%w: lane counts differ (source %d, follower %d)",
			ErrConfig, len(srcLanes), len(dstLanes))
	}
	localEpoch := journalEpoch(cfg.Journal)
	if srcEpoch := journalEpoch(cfg.Source); srcEpoch < localEpoch {
		return nil, fmt.Errorf("%w: source epoch %d < local epoch %d",
			ErrFenced, srcEpoch, localEpoch)
	}
	gw, err := ipsec.NewGateway(ipsec.GatewayConfig{
		Journal:     cfg.Journal,
		K:           cfg.K,
		W:           cfg.W,
		ESN:         cfg.ESN,
		Lifetime:    cfg.Lifetime,
		Clock:       cfg.Clock,
		OnLifecycle: cfg.OnLifecycle,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: standby gateway: %w", err)
	}
	s := &Standby{
		cfg:        cfg,
		gw:         gw,
		localEpoch: localEpoch,
		done:       make(chan struct{}),
	}
	for i := range srcLanes {
		tl, err := srcLanes[i].Follow()
		if err == nil {
			if err = srcLanes[i].SyncFollower(tl); err != nil {
				tl.Close()
			}
		}
		if err != nil {
			s.closeTails()
			gw.Close()
			return nil, fmt.Errorf("cluster: follow source lane %d: %w", i, err)
		}
		l := &laneRepl{s: s, idx: i, src: srcLanes[i], dst: dstLanes[i], tl: tl}
		l.lastAck.Store(time.Now().UnixNano())
		s.lanes = append(s.lanes, l)
	}
	return s, nil
}

// Start launches the replication loops, one per commit lane:
// snapshot-then-tail from each source lane into the same-numbered follower
// lane. It returns immediately; terminal stream errors surface through
// Stats().Err and fail a later Takeover.
func (s *Standby) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return ErrPromoted
	}
	if s.started {
		return nil
	}
	s.started = true
	s.wg.Add(len(s.lanes))
	for _, l := range s.lanes {
		go l.run()
	}
	go func() {
		s.wg.Wait()
		close(s.done)
	}()
	return nil
}

// fail records a loop's terminal error and releases the primary's savers:
// a dead standby must degrade the primary to local-only durability, not
// wedge it. Every lane's tail is closed — a standby with one dead lane is a
// dead standby; letting the healthy lanes keep acking would let the primary
// count saves on them as replicated while the broken lane silently rots.
// Closing a tail clears the sync-follower role only if this standby still
// holds it — never a successor standby's registration (which would silently
// void the successor's replication guarantee). The degradation is loud —
// Stats().Err and a failed Takeover.
func (s *Standby) fail(err error) {
	s.mu.Lock()
	if s.runErr == nil {
		s.runErr = err
	}
	s.mu.Unlock()
	s.closeTails()
}

// closeTails detaches every lane's tail; idempotent.
func (s *Standby) closeTails() {
	for _, l := range s.lanes {
		l.tl.Close()
	}
}

// totalLag sums the instantaneous replication lag across lanes.
func (s *Standby) totalLag() uint64 {
	var lag uint64
	for _, l := range s.lanes {
		lag += l.tl.Lag()
	}
	return lag
}

// run is one lane's replication loop; it exits when the lane's tail closes
// (Stop or Takeover) or on a terminal error, which tears down every lane.
//
// Receives are coalesced: after one blocking Recv the loop drains whatever
// further records the source lane has already committed (Tail.TryRecv)
// before applying, so a burst of primary group commits lands in the
// follower lane as ONE Apply — one follower fsync — and is acknowledged
// with ONE Ack. Since the sync-follower ack is what completes the primary's
// saves, batching here directly raises the cluster's save-to-ack
// throughput; with many lanes those applies also run in parallel across the
// follower's lane files.
func (l *laneRepl) run() {
	s := l.s
	defer s.wg.Done()
	buf := make([]store.TailRecord, batchMax)
	batch := make([]store.TailRecord, 0, 4*batchMax)
	needSnap := true
	for {
		if needSnap {
			if err := l.resync(); err != nil {
				if !errors.Is(err, store.ErrClosed) {
					s.fail(err)
				}
				return
			}
			needSnap = false
		}
		n, err := l.tl.Recv(buf)
		switch {
		case errors.Is(err, store.ErrTailLagged):
			needSnap = true
			continue
		case errors.Is(err, store.ErrClosed):
			return // Stop/Takeover closed the tail, or the source closed
		case err != nil:
			s.fail(err)
			return
		}
		batch = append(batch[:0], buf[:n]...)
		for len(batch)+len(buf) <= 4*batchMax {
			m, terr := l.tl.TryRecv(buf)
			if terr != nil || m == 0 {
				// Apply what we have; the next blocking Recv surfaces any
				// error (lag, closure) in the switch above.
				break
			}
			batch = append(batch, buf[:m]...)
		}
		for _, rec := range batch {
			if rec.Key != EpochKey || rec.Del {
				continue
			}
			if err := s.noteSourceEpoch(rec.Val); err != nil {
				s.fail(err)
				return
			}
		}
		if err := l.dst.Apply(batch); err != nil {
			s.fail(fmt.Errorf("cluster: apply batch (lane %d): %w", l.idx, err))
			return
		}
		l.ack(batch[len(batch)-1].Seq + 1)
		s.applied.Add(uint64(len(batch)))
	}
}

// resync performs one snapshot-then-tail attachment of a lane: fence-check
// the source's epoch, reconcile the follower lane to the snapshot (keys
// absent from the snapshot are tombstoned — they were retired on the
// primary while we were not watching; values apply max-wins, so residual
// higher local counters survive, which errs toward sacrifice, never toward
// replay), and acknowledge the snapshot position.
func (l *laneRepl) resync() error {
	s := l.s
	snap, next, err := l.tl.Snapshot()
	if err != nil {
		return err
	}
	// Only the epoch's own lane carries EpochKey; on every other lane the
	// key's absence means "not this lane", not "epoch zero", so the fence
	// check is presence-guarded. (A stale source is still refused at
	// attach time — NewStandby reads the epoch through the lane hash.)
	if e, ok := snap[EpochKey]; ok {
		if err := s.noteSourceEpoch(e); err != nil {
			return err
		}
	}
	// Tombstones and values join one batch, so the whole reconciliation
	// group-commits under a single fsync regardless of how many keys were
	// retired while this node was not watching.
	local := l.dst.Values()
	recs := make([]store.TailRecord, 0, len(snap)+8)
	for key := range local {
		if _, ok := snap[key]; !ok {
			recs = append(recs, store.TailRecord{Key: key, Del: true})
		}
	}
	for key, v := range snap {
		recs = append(recs, store.TailRecord{Key: key, Val: v})
	}
	if err := l.dst.Apply(recs); err != nil {
		return fmt.Errorf("cluster: apply snapshot (lane %d): %w", l.idx, err)
	}
	l.ack(next)
	s.snapshots.Add(1)
	return nil
}

// noteSourceEpoch folds an observed source epoch into the fencing check.
func (s *Standby) noteSourceEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < s.localEpoch {
		return fmt.Errorf("%w: source epoch %d < local epoch %d", ErrFenced, e, s.localEpoch)
	}
	if e > s.srcEpoch {
		s.srcEpoch = e
	}
	return nil
}

// Mirror reconciles the warm gateway image to the primary's control-plane
// snapshot (ipsec.Gateway.Snapshot): SAs appear in the down state, retired
// SAs are forgotten without touching their replicated cells. Call it after
// population changes on the primary — initial setup, rekey rollovers,
// SA removals. Refused after promotion (the image is live then).
func (s *Standby) Mirror(snap ipsec.GatewaySnapshot) error {
	s.op.Lock()
	defer s.op.Unlock()
	s.mu.Lock()
	promoted := s.promoted
	s.mu.Unlock()
	if promoted {
		return ErrPromoted
	}
	return s.gw.Adopt(snap)
}

// Stats returns a snapshot of replication progress. LagRecords is
// recomputed against the source's commit watermark at call time — an
// earlier version summed gauges the apply loops updated, so a follower
// whose loops had silently died kept reporting its last healthy lag
// (usually 0) while the primary committed past it. Scrape-time
// recomputation is what makes an idle-but-dead follower visible.
func (s *Standby) Stats() ReplicationStats {
	s.mu.Lock()
	err := s.runErr
	epoch := s.srcEpoch
	s.mu.Unlock()
	var lag uint64
	oldest := time.Duration(0)
	now := time.Now()
	for _, l := range s.lanes {
		lag += l.tl.Lag()
		if age := now.Sub(time.Unix(0, l.lastAck.Load())); age > oldest {
			oldest = age
		}
	}
	return ReplicationStats{
		AppliedRecords: s.applied.Value(),
		SnapshotLoads:  s.snapshots.Value(),
		LagRecords:     lag,
		LastAckAge:     oldest,
		SourceEpoch:    epoch,
		Err:            err,
	}
}

// LagValues measures the replication lag in counter values: the sum over
// all keys of how far the follower journal's value trails the source's.
// This is the quantity that bounds the post-takeover false-reject window —
// the promoted gateway wakes at (applied value + leap) per key, so fresh
// traffic is sacrificed for at most (lag + leap) sequence numbers per SA.
// It reads both journals, so it is an observability aid (experiments,
// operator dashboards), not a datapath primitive.
func (s *Standby) LagValues() uint64 {
	src := s.cfg.Source.Values()
	local := s.cfg.Journal.Values()
	var lag uint64
	for key, sv := range src {
		if lv := local[key]; sv > lv {
			lag += sv - lv
		}
	}
	return lag
}

// RepairSourceLane re-seeds one quarantined lane of the PRIMARY's medium
// from this standby's follower lane — the standby-assisted half of lane
// repair. The donor is the follower lane's applied state which, thanks to
// the sync-follower registration, covers every save the primary ever
// acknowledged on that lane; Journal.Repair merges it max-wins with the
// primary's own in-memory values (so nothing staged after the fault is lost
// either) and rewrites the lane's log from scratch, clearing the
// quarantine. The primary's stalled SAs then resume via its WakeAll.
//
// Repairing from a promoted standby is refused: after takeover the old
// primary is fenced, and "repairing" it would revive a deposed writer.
func (s *Standby) RepairSourceLane(lane int) error {
	s.mu.Lock()
	promoted := s.promoted
	s.mu.Unlock()
	if promoted {
		return ErrPromoted
	}
	if lane < 0 || lane >= len(s.lanes) {
		return fmt.Errorf("cluster: repair lane %d: standby has %d lanes", lane, len(s.lanes))
	}
	l := s.lanes[lane]
	return l.src.Repair(l.dst.Values())
}

// Stop gracefully detaches the standby without promoting it: the sync-
// follower registration is cleared (the primary degrades to local-only
// durability), the stream stops, and the warm image is closed. A stopped
// standby cannot be restarted; build a new one.
func (s *Standby) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	started, promoted := s.started, s.promoted
	s.mu.Unlock()
	// Tail.Close clears a source lane's sync-follower role only when this
	// standby's tail still holds it; a successor standby's registrations
	// are never touched.
	s.closeTails()
	if started {
		<-s.done
	}
	if !promoted {
		s.gw.Close()
	}
}

// Takeover promotes the standby: the epoch-fenced failover.
//
//  1. The source journal is fenced: every deposed-primary write from this
//     instant on is rejected (and a partitioned primary that never sees the
//     fence stalls on its own within one horizon, because its saves can no
//     longer be acknowledged).
//  2. The committed stream is drained, so the follower holds everything the
//     primary ever acknowledged — takeover loss is replication lag, which
//     the sync-follower gate has kept at "the in-flight batch".
//  3. The cluster epoch is durably bumped in the local journal; any later
//     replication stream from the deposed primary is refused as stale.
//  4. The warm image wakes (ipsec.Gateway.WakeAll): every SA runs the
//     paper's FETCH + leap + SAVE against its replicated counter. This is
//     the whole point — takeover IS the reset protocol's wake-up, so the
//     paper's no-reuse/no-replay theorems apply to failover verbatim.
//
// The returned gateway is live and owns the SA population; the deposed
// primary's gateway must not be used again. Takeover fails with the
// stream's terminal error if replication already died (e.g. ErrFenced).
// A Takeover that fails at the epoch bump or the wake (steps 3-4) leaves
// the standby unpromoted and may be retried: the source stays fenced and
// drained, so the retry just repeats the local steps.
func (s *Standby) Takeover() (*ipsec.Gateway, uint64, error) {
	s.op.Lock()
	defer s.op.Unlock()
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return nil, 0, ErrPromoted
	}
	if !s.started {
		s.mu.Unlock()
		return nil, 0, ErrNotRunning
	}
	if s.runErr != nil {
		err := s.runErr
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("cluster: takeover refused: %w", err)
	}
	s.mu.Unlock()

	// (1) Fence the deposed primary — every lane. After Fence returns each
	// lane's durable stream is frozen, so the drain below is exhaustive.
	s.cfg.Source.Fence(store.ErrFenced)

	// (2) Drain: the run loops keep applying; wait until every lane has
	// consumed its frozen stream. A generous deadline guards against a
	// wedged loop — proceeding early is safe (endpoint-acknowledged saves
	// are already applied; un-applied records only cost extra sacrifice),
	// it just widens the false-reject window.
	deadline := time.Now().Add(5 * time.Second)
	for s.totalLag() > 0 && time.Now().Before(deadline) {
		s.mu.Lock()
		err := s.runErr
		s.mu.Unlock()
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: takeover drain: %w", err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	s.closeTails()
	<-s.done

	s.mu.Lock()
	epoch := s.localEpoch
	if s.srcEpoch > epoch {
		epoch = s.srcEpoch
	}
	epoch++
	s.mu.Unlock()

	// (3) Durable epoch bump, then (4) wake the image from the replica.
	// The promotion is committed only once both succeed; a failure here
	// leaves the standby unpromoted and Takeover retryable.
	if err := s.cfg.Journal.Cell(EpochKey).Save(epoch); err != nil {
		return nil, 0, fmt.Errorf("cluster: persist epoch: %w", err)
	}
	if s.cfg.OnPromote != nil {
		// The wake window: fenced, epoch bumped, image not yet awake.
		s.cfg.OnPromote(epoch)
	}
	if err := s.gw.WakeAll(); err != nil {
		return nil, 0, fmt.Errorf("cluster: wake image: %w", err)
	}
	s.mu.Lock()
	s.promoted = true
	s.localEpoch = epoch
	s.mu.Unlock()
	return s.gw, epoch, nil
}
