package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"antireplay/internal/ipsec"
	"antireplay/internal/store"
	"antireplay/internal/storefault"
	"antireplay/internal/testbed"
)

const diskfaultK = 8 // SAVE interval of every diskfault gateway

// diskPair is a testbed pair whose victim (node B) sits on a fault
// injector — the sender and any standby stay on clean media — with one
// inbound SA per entry of spis spread over the victim's lanes.
type diskPair struct {
	*campPair
	in    *storefault.Injector
	lanes *store.Lanes // the victim's medium
	lane  []int        // the victim lane hosting spis[i]

	poisons atomic.Int32 // poison hook firings
}

// newDiskPair builds the pair over laneCount lanes (fsync on when sync)
// and registers SAs lane by lane until every victim lane hosts perLane of
// them (probing SPIs through the lane hash). Extra lane options apply to
// the victim.
func newDiskPair(cfg CampaignsConfig, laneCount, perLane int, sync bool, opts ...store.LanesOption) (*diskPair, error) {
	p := &diskPair{in: storefault.NewInjector(nil)}
	cp, err := newCampPair(testbed.Config{
		K: diskfaultK, W: 64, Lanes: laneCount, Sync: sync,
		LaneOpts: append([]store.LanesOption{store.LanesWithFS(p.in)}, opts...),
		OnPoison: func(int, error) { p.poisons.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	p.campPair, p.lanes = cp, cp.B.Medium

	// Probe SPIs through the victim's lane hash until every lane hosts
	// perLane SAs: the traffic then exercises each fault domain, and
	// "every other lane at full throughput" is a claim about all of them.
	rng := rand.New(rand.NewSource(cfg.Seed + 500))
	fill := make([]int, laneCount)
	for spi := uint32(0xD100_0000); len(p.spis) < laneCount*perLane; spi++ {
		lane := p.lanes.Cell(ipsec.InboundKey(spi)).Lane()
		if fill[lane] >= perLane {
			continue
		}
		fill[lane]++
		if err := p.install(spi, randKeys(rng)); err != nil {
			p.Close()
			return nil, err
		}
		p.lane = append(p.lane, lane)
	}
	return p, nil
}

// committedFloor snapshots every inbound SA's durable counter.
func (p *diskPair) committedFloor() []uint64 {
	floors := make([]uint64, len(p.spis))
	for i, spi := range p.spis {
		if sa, ok := p.B.GW.SAD().Lookup(spi); ok {
			floors[i] = sa.Receiver().Committed()
		}
	}
	return floors
}

// checkCommitted asserts no SA's durable counter regressed below floor.
func (p *diskPair) checkCommitted(floors []uint64) error {
	for i, spi := range p.spis {
		sa, ok := p.B.GW.SAD().Lookup(spi)
		if !ok {
			return fmt.Errorf("diskfault: SA %#x vanished", spi)
		}
		if got := sa.Receiver().Committed(); got < floors[i] {
			return fmt.Errorf("diskfault: SA %#x durable counter regressed %d -> %d", spi, floors[i], got)
		}
	}
	return nil
}

// laneFile is the substring an injected fault uses to target one lane's
// log (the lane file naming is part of the manifest contract).
func laneFile(lane int) string { return fmt.Sprintf("lane-%03d.log", lane) }

// errHealthyLoss fails a row whose fault leaked past its lanes.
var errHealthyLoss = errors.New("an SA on a healthy lane lost throughput")

// fsyncStormRow quarantines several lanes at once: every fsync on lanes 0
// and 1 fails, forever, mid-traffic. The first failed SAVE poisons each —
// never retried, per fsyncgate — and only their SAs stall; the storm must
// not leak into the other lanes' throughput, and the full-history replay
// must still deliver nothing twice.
func fsyncStormRow(cfg CampaignsConfig) ([]campRow, error) {
	const stormLanes = 8
	p, err := newDiskPair(cfg, stormLanes, 2, true)
	if err != nil {
		return nil, err
	}
	defer p.Close()

	if _, err := p.send(cfg.Packets); err != nil {
		return nil, err
	}
	floors := p.committedFloor()

	faulted := []int{0, 1}
	if err := p.Settle(); err != nil {
		return nil, err
	}
	p.in.Arm(
		storefault.Fault{Op: storefault.OpSync, Path: laneFile(0), Err: syscall.EIO},
		storefault.Fault{Op: storefault.OpSync, Path: laneFile(1), Err: syscall.EIO},
	)
	got, err := p.send(cfg.Packets)
	if err != nil {
		return nil, err
	}

	isFaulted := func(lane int) bool { return lane == faulted[0] || lane == faulted[1] }
	stalled, stalledSAs := 0, 0
	for i, lane := range p.lane {
		if isFaulted(lane) {
			if got[i] >= cfg.Packets {
				return nil, fmt.Errorf("SA %#x on quarantined lane %d never stalled", p.spis[i], lane)
			}
			stalledSAs++
			stalled += cfg.Packets - got[i]
		} else if got[i] != cfg.Packets {
			return nil, errHealthyLoss
		}
	}
	if q := p.lanes.Quarantined(); len(q) != 2 || !isFaulted(q[0]) || !isFaulted(q[1]) {
		return nil, fmt.Errorf("quarantined lanes %v, want %v", q, faulted)
	}
	if d := p.B.GW.Degraded(); len(d) != 2 {
		return nil, fmt.Errorf("gateway degraded %v, want both faulted lanes", d)
	}
	if hooks := p.poisons.Load(); hooks != 2 {
		return nil, fmt.Errorf("poison hook fired %d times, want 2", hooks)
	}
	if err := p.checkCommitted(floors); err != nil {
		return nil, err
	}
	if err := p.ReplayAll(); err != nil {
		return nil, err
	}
	return []campRow{p.row(fmt.Sprintf("%d SAs stalled at horizon, %d faults fired", stalledSAs, p.in.Fired()),
		"fsync EIO forever on 2 lanes", fmt.Sprint(stormLanes), "2", fmt.Sprint(stalled))}, nil
}

// enospcCompactRow prices the transient full disk: first ENOSPC eats two
// compaction temp writes (retried on the old log, temps removed, no
// quarantine), then one lane write fails ENOSPC and the journal rescues
// itself by compacting in place of the failed batch. Everything stays
// delivered and no temp file strands.
func enospcCompactRow(cfg CampaignsConfig) ([]campRow, error) {
	const compactLanes = 4
	p, err := newDiskPair(cfg, compactLanes, 2, false, store.LanesCompactAt(256))
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// Phase 1 under compaction ENOSPC: the temp write fails, the old log
	// stays authoritative, and the crossing is retried until the fault
	// budget runs out.
	if err := p.Settle(); err != nil {
		return nil, err
	}
	p.in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: ".compact", Count: 2, Err: syscall.ENOSPC})
	n := 4 * cfg.Packets // enough appends to cross the 256 B threshold repeatedly
	got, err := p.send(n)
	if err != nil {
		return nil, err
	}
	compactFired := p.in.Fired()
	if compactFired < 2 {
		return nil, fmt.Errorf("compaction ENOSPC fired %d times, want 2 (threshold never crossed?)", compactFired)
	}

	if p.lanes.Compactions() == 0 {
		return nil, errors.New("compaction never succeeded after the transient ENOSPC")
	}

	// Phase 2 on a fresh pair whose threshold is never crossed (default
	// compactAt), so the one-shot ENOSPC can only land on a commit's
	// write step: the journal rescues by compacting in place of the
	// failed batch — the batch is durable via the snapshot, nothing
	// poisons, no waiter sees an error. (On the first pair the fault
	// could land on a threshold compaction's own temp write instead,
	// which is the already-priced phase-1 shape.)
	p2, err := newDiskPair(cfg, compactLanes, 2, false)
	if err != nil {
		return nil, err
	}
	defer p2.Close()
	if err := p2.Settle(); err != nil {
		return nil, err
	}
	p2.in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: laneFile(0), Count: 1, Err: syscall.ENOSPC})
	got2, err := p2.send(n)
	if err != nil {
		return nil, err
	}

	for i := range p.spis {
		if got[i] != n || got2[i] != n {
			return nil, errHealthyLoss
		}
	}
	if q := p.lanes.Quarantined(); len(q) != 0 {
		return nil, fmt.Errorf("transient ENOSPC quarantined lanes %v, want none", q)
	}
	if q := p2.lanes.Quarantined(); len(q) != 0 {
		return nil, fmt.Errorf("rescued ENOSPC quarantined lanes %v, want none", q)
	}
	var rescues uint64
	for _, s := range p2.lanes.LaneStats() {
		rescues += s.Rescues
	}
	if rescues == 0 {
		return nil, errors.New("lane-write ENOSPC was never rescued by compaction")
	}
	for _, dir := range []string{p.lanes.Path(), p2.lanes.Path()} {
		strays, err := filepath.Glob(filepath.Join(dir, "*.compact*"))
		if err != nil {
			return nil, err
		}
		if len(strays) != 0 {
			return nil, fmt.Errorf("stranded compaction temps: %v", strays)
		}
	}
	if err := p.ReplayAll(); err != nil {
		return nil, err
	}
	if err := p2.ReplayAll(); err != nil {
		return nil, err
	}
	// The compaction count is left out of the row: how many threshold
	// crossings the appends make depends on how the pool batched them.
	row := p.row(fmt.Sprintf("%d faults fired, %d rescues, 0 stray temps",
		compactFired+p2.in.Fired(), rescues),
		"ENOSPC x2 at compact temp, x1 at lane write", fmt.Sprint(compactLanes), "0", "0")
	row.sent += p2.Sent()
	row.delivered += p2.Delivered()
	row.replays += p2.Replays()
	return []campRow{row}, nil
}

// singleLaneEIORow kills one lane of 64 under live replication:
// every write to that lane fails EIO, forever, while a cluster standby
// tails the medium. Only that lane quarantines and only its SA stalls —
// the other lanes keep full throughput. Then the "disk is replaced"
// (injector disarmed), the lane is repaired from the standby's replica,
// the SAs are woken, and traffic on the dead lane resumes.
func singleLaneEIORow(cfg CampaignsConfig) ([]campRow, error) {
	// The one quarantined lane prices exactly the 1/64 fault domain; the
	// other rows use small lane counts, their point being the fault shape.
	const eioLanes = 64
	p, err := newDiskPair(cfg, eioLanes, 1, false)
	if err != nil {
		return nil, err
	}
	defer p.Close()

	if err := p.AddStandby(); err != nil {
		return nil, err
	}

	got1, err := p.send(cfg.Packets)
	if err != nil {
		return nil, err
	}
	for i, g := range got1 {
		if g != cfg.Packets {
			return nil, fmt.Errorf("pre-fault SA %#x delivered %d/%d", p.spis[i], g, cfg.Packets)
		}
	}
	floors := p.committedFloor()

	// Kill the last lane's disk: every write EIO, forever.
	dead := eioLanes - 1
	if err := p.Settle(); err != nil {
		return nil, err
	}
	p.in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: laneFile(dead), Err: syscall.EIO})
	got2, err := p.send(cfg.Packets)
	if err != nil {
		return nil, err
	}

	stalled := 0
	for i, lane := range p.lane {
		if lane == dead {
			if got2[i] >= cfg.Packets {
				return nil, fmt.Errorf("SA %#x on dead lane %d never stalled", p.spis[i], dead)
			}
			stalled += cfg.Packets - got2[i]
		} else if got2[i] != cfg.Packets {
			return nil, errHealthyLoss
		}
	}
	if q := p.lanes.Quarantined(); len(q) != 1 || q[0] != dead {
		return nil, fmt.Errorf("quarantined lanes %v, want [%d]", q, dead)
	}
	if d := p.B.GW.Degraded(); len(d) != 1 || d[0] != dead {
		return nil, fmt.Errorf("gateway degraded %v, want [%d]", d, dead)
	}

	// Replace the disk and repair the lane from the standby's replica,
	// then wake the population (FETCH + 2K leap + SAVE) so the stalled
	// SA's horizon unfreezes.
	p.in.Disarm()
	if err := p.Standby.RepairSourceLane(dead); err != nil {
		return nil, fmt.Errorf("standby lane repair: %w", err)
	}
	if q := p.lanes.Quarantined(); len(q) != 0 {
		return nil, fmt.Errorf("lanes still quarantined after repair: %v", q)
	}
	if err := p.B.GW.WakeAll(); err != nil {
		return nil, fmt.Errorf("post-repair wake: %w", err)
	}
	if err := p.checkCommitted(floors); err != nil {
		return nil, err
	}

	// Phase 3: the wake leap sacrifices at most 2K fresh packets per SA
	// (the paper's bounded wake bill); past that, every lane — the
	// repaired one included — must deliver again.
	got3, err := p.send(cfg.Packets)
	if err != nil {
		return nil, err
	}
	wakeBill := 2 * int(diskfaultK)
	resumed := 0
	for i, lane := range p.lane {
		if got3[i] < cfg.Packets-wakeBill-1 {
			return nil, fmt.Errorf("post-repair SA %#x (lane %d) delivered %d/%d, want >= %d",
				p.spis[i], lane, got3[i], cfg.Packets, cfg.Packets-wakeBill-1)
		}
		if lane == dead {
			resumed = got3[i]
			if got3[i] == 0 {
				return nil, errors.New("repaired lane's SA never resumed")
			}
		}
	}
	var repairs uint64
	for _, s := range p.lanes.LaneStats() {
		repairs += s.Repairs
	}
	if repairs != 1 {
		return nil, fmt.Errorf("repairs counter %d, want 1", repairs)
	}
	if err := p.ReplayAll(); err != nil {
		return nil, err
	}
	return []campRow{p.row(fmt.Sprintf("repaired lane %d from standby, SA resumed %d pkts", dead, resumed),
		fmt.Sprintf("write EIO forever on lane %d (replicated)", dead), fmt.Sprint(eioLanes), "1", fmt.Sprint(stalled))}, nil
}
