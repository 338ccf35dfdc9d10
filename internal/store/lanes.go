package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"antireplay/internal/storefault"
)

// This file is the durable multi-counter medium. A Lanes value is N
// independent Journals — each its own append-only CRC-framed segment with
// its own staging buffer, elected committer, and fsync — behind one
// cell/claim/fence surface; with LanesCount(1) it is the single-journal
// form. Keys route to lanes by the same Fibonacci SPI hash the SAD uses for
// its stripes, so the counters of SAs that never contend in the datapath
// never contend in the commit path either: group commits parallelize across
// lanes, cold-start recovery replays every lane concurrently and scales with
// cores, and compaction stalls one lane instead of the world.
//
// Durability per key is exactly its lane's — a key lives entirely in one
// lane, so "SAVE completed" means "this record's lane fsynced it (and its
// sync follower applied it)". Cross-lane ordering is deliberately
// unspecified, matching the paper's model: each SA's counter stream is
// independent, and nothing in the protocol compares sequence numbers across
// SAs.

// DefaultLaneCount is the lane count OpenLanes uses when LanesCount is not
// given — aligned with the SAD's 64 stripes (and hashed identically), so a
// datapath shard maps onto a commit lane one-to-one.
const DefaultLaneCount = 64

// maxLaneCount bounds the manifest's lane count; beyond this the per-lane
// fixed costs (file descriptors, staging slabs) dwarf any batching win.
const maxLaneCount = 1 << 10

// Lane manifest layout (big endian): 4 bytes magic "ARJM" | 2 bytes
// version (1) | 2 bytes lane count | 4 bytes CRC-32C of the preceding 8.
// The manifest is authoritative: a reopened directory always uses its
// recorded lane count (the key→lane hash must match what wrote the lane
// files), so LanesCount only applies to a fresh directory.
const (
	laneManifestMagic = "ARJM"
	laneManifestVer   = 1
	laneManifestLen   = 12
	laneManifestName  = "MANIFEST"
)

// Lanes is the durable medium of a gateway or a cluster standby: a
// directory of N commit-lane journals under one manifest. Every per-key
// operation routes to the key's lane by SPI hash, and the aggregate
// operations (Values, Fence, Close, ...) fan out. Safe for concurrent use.
type Lanes struct {
	dir      string
	lanes    []*Journal
	laneBits uint
}

// lanesConfig is the medium's option set; every lane reads the one copy.
// batchDelay (a lane's committer lingers that long before its fsync so more
// concurrent SAVEs join the batch) has no option that sets it: it is zero
// everywhere but in the two group-commit tests, whose fsync ratios need the
// burst queued while the CPU is contended.
type lanesConfig struct {
	count          int
	sync           bool
	compactAt      int64
	batchDelay     time.Duration
	tailCap        int
	strictRecovery bool
	fs             storefault.FS
	onPoison       func(lane int, err error)
}

// LanesOption configures OpenLanes.
type LanesOption func(*lanesConfig)

func newLanesConfig(opts []LanesOption) *lanesConfig {
	cfg := &lanesConfig{
		count: DefaultLaneCount, sync: true, compactAt: DefaultCompactAt,
		tailCap: DefaultTailBuffer, fs: storefault.OS(),
	}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// LanesCount sets the lane count for a FRESH directory (power of two,
// 1..1024). An existing directory's manifest always wins; see OpenLanes.
func LanesCount(n int) LanesOption {
	return func(c *lanesConfig) { c.count = n }
}

// LanesWithoutSync disables every fsync in the medium (group commits,
// compaction, the manifest). A power loss may then lose recent saves; a
// process crash may not.
func LanesWithoutSync() LanesOption {
	return func(c *lanesConfig) { c.sync = false }
}

// LanesCompactAt sets the log size, in bytes, at which a lane compacts (per
// lane, not aggregate). Values <= 0 disable compaction.
func LanesCompactAt(n int64) LanesOption {
	return func(c *lanesConfig) { c.compactAt = n }
}

// DefaultTailBuffer is each lane's retained-record window for tailing
// readers (Follow): at least that many recent records stay available, and
// the buffer is trimmed back to it once it reaches twice that (amortizing
// the trim to O(1) per append). A reader that falls behind the window
// resynchronizes by snapshot-then-tail (ErrTailLagged), so the buffer bounds
// replication memory, not correctness.
const DefaultTailBuffer = 1 << 12

// LanesStrictRecovery makes OpenLanes refuse (ErrCorrupt) when CRC-valid
// records follow the first bad frame of a lane, instead of skipping the
// damaged region. Skipping is always safe for crash tears (the dropped
// records' SAVEs never completed), but it silently rolls a counter back if
// an already-durable record is later damaged by the medium itself; strict
// recovery surfaces that case, at the price of refusing some legitimate
// multi-record power-loss tails whose later pages persisted before earlier
// ones. Prefer it on storage without its own integrity checking.
func LanesStrictRecovery() LanesOption {
	return func(c *lanesConfig) { c.strictRecovery = true }
}

// LanesWithFS routes every filesystem operation of the medium — the
// manifest, recovery reads, appends, fsyncs, compaction's temp/rename dance
// — through fsys instead of the default passthrough (storefault.OS). This
// is where a fault schedule (storefault.Injector) plugs in, and how a
// disk-fault campaign scopes itself to one lane: arm a Fault whose Path
// matches that lane's file name and every other lane runs untouched. The
// hot path pays one interface dispatch per write/sync either way, so the
// zero-alloc gates hold with or without an injector. A nil fsys keeps the
// default.
func LanesWithFS(fsys storefault.FS) LanesOption {
	return func(c *lanesConfig) {
		if fsys != nil {
			c.fs = fsys
		}
	}
}

// LanesOnPoison registers a hook fired exactly once per lane poisoning, with
// the lane index and the sticky error: when a commit failure (or a failed
// Close flush) marks the lane unusable. It runs with that lane's mutex held,
// so it must not call back into the medium — record an event, bump a gauge,
// notify a quarantine manager. The other lanes are untouched — poisoning is
// exactly the per-lane fault domain Quarantined reports — and a successful
// RepairLane re-arms the hook.
func LanesOnPoison(fn func(lane int, err error)) LanesOption {
	return func(c *lanesConfig) { c.onPoison = fn }
}

// laneFileName returns lane i's file name within the manifest directory.
func laneFileName(i int) string { return fmt.Sprintf("lane-%03d.log", i) }

// OpenLanes opens (or creates) the medium rooted at dir: the manifest is
// read (or published, for a fresh directory), and every lane replays its
// segment concurrently — cold-start recovery of the whole medium costs one
// lane's replay per core instead of one serial pass, and the per-lane
// maxima merge trivially because a key lives in exactly one lane.
func OpenLanes(dir string, opts ...LanesOption) (*Lanes, error) {
	cfg := newLanesConfig(opts)
	if err := cfg.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: lanes dir: %w", err)
	}
	count, err := readOrWriteManifest(dir, cfg)
	if err != nil {
		return nil, err
	}
	bits := uint(0)
	for 1<<bits < count {
		bits++
	}

	// Open every lane concurrently: on a many-core host the replays — the
	// dominant cold-start cost — run in parallel; on one core they simply
	// interleave. Each lane gets its index (cells report it for SaverPool
	// routing).
	lanes := make([]*Journal, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := openJournal(filepath.Join(dir, laneFileName(i)), i, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("store: lane %d: %w", i, err)
				return
			}
			lanes[i] = j
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, j := range lanes {
				if j != nil {
					j.Close()
				}
			}
			return nil, err
		}
	}
	return &Lanes{dir: dir, lanes: lanes, laneBits: bits}, nil
}

// readOrWriteManifest returns the directory's lane count, publishing the
// manifest for a fresh directory: written to a temp name, fsynced, renamed
// into place and the directory fsynced — the dance compaction uses — so a
// reset at any point leaves the manifest either absent (the next open
// starts over) or complete, never a short file that bricks the directory.
// It is durable before any lane file exists, so a reset between them
// recovers an empty medium rather than a directory whose lane count is
// guesswork.
func readOrWriteManifest(dir string, cfg *lanesConfig) (int, error) {
	path := filepath.Join(dir, laneManifestName)
	data, err := cfg.fs.ReadFile(path)
	switch {
	case err == nil:
		if len(data) != laneManifestLen || string(data[0:4]) != laneManifestMagic {
			return 0, fmt.Errorf("%w: lane manifest %q", ErrCorrupt, path)
		}
		if got, want := binary.BigEndian.Uint32(data[8:12]), journalCRC(data[:8]); got != want {
			return 0, fmt.Errorf("%w: lane manifest checksum", ErrCorrupt)
		}
		if ver := binary.BigEndian.Uint16(data[4:6]); ver != laneManifestVer {
			return 0, fmt.Errorf("%w: lane manifest version %d", ErrCorrupt, ver)
		}
		count := int(binary.BigEndian.Uint16(data[6:8]))
		if count < 1 || count > maxLaneCount || count&(count-1) != 0 {
			return 0, fmt.Errorf("%w: lane manifest count %d", ErrCorrupt, count)
		}
		return count, nil
	case os.IsNotExist(err):
		count := cfg.count
		if count < 1 || count > maxLaneCount || count&(count-1) != 0 {
			return 0, fmt.Errorf("store: lane count %d: want a power of two in [1, %d]", count, maxLaneCount)
		}
		buf := make([]byte, 0, laneManifestLen)
		buf = append(buf, laneManifestMagic...)
		buf = binary.BigEndian.AppendUint16(buf, laneManifestVer)
		buf = binary.BigEndian.AppendUint16(buf, uint16(count))
		buf = binary.BigEndian.AppendUint32(buf, journalCRC(buf))
		// A fixed temp name: what a reset strands here the next open
		// truncates and reuses, so orphans never accumulate.
		tmp := path + ".tmp"
		f, err := cfg.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return 0, fmt.Errorf("store: lane manifest create: %w", err)
		}
		_, err = f.Write(buf)
		if err == nil && cfg.sync {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = cfg.fs.Rename(tmp, path)
		}
		if err != nil {
			cfg.fs.Remove(tmp)
			return 0, fmt.Errorf("store: lane manifest publish: %w", err)
		}
		if cfg.sync {
			if err := syncDir(cfg.fs, dir); err != nil {
				return 0, err
			}
		}
		return count, nil
	default:
		return 0, fmt.Errorf("store: lane manifest read: %w", err)
	}
}

// laneOf routes a key to its lane. SA keys ("tx/xxxxxxxx", "rx/xxxxxxxx")
// hash their SPI with the SAD's Fibonacci multiplier, so an SA's commit
// lane is the same stripe its datapath admission runs on; other keys (the
// cluster epoch, a probe cell) hash their bytes first. With one lane every
// key maps to lane 0.
func (l *Lanes) laneOf(key string) int {
	if l.laneBits == 0 {
		return 0
	}
	var h uint32
	if pk, ok := packKey(key); ok {
		h = uint32(pk)
	} else {
		h = 2166136261 // FNV-1a over the key bytes
		for i := 0; i < len(key); i++ {
			h = (h ^ uint32(key[i])) * 16777619
		}
	}
	return int((h * 2654435761) >> (32 - l.laneBits))
}

// Lane returns the journal of the lane that owns key.
func (l *Lanes) Lane(key string) *Journal { return l.lanes[l.laneOf(key)] }

// LaneCount returns the number of commit lanes.
func (l *Lanes) LaneCount() int { return len(l.lanes) }

// LaneJournals returns the underlying commit lanes, in lane order —
// replication attaches per lane. The slice is shared; do not mutate it.
func (l *Lanes) LaneJournals() []*Journal { return l.lanes }

// Path returns the manifest directory.
func (l *Lanes) Path() string { return l.dir }

// Cell returns a Store view of one key in its lane; see Journal.Cell.
func (l *Lanes) Cell(key string) *Cell { return l.Lane(key).Cell(key) }

// ClaimCell claims key's cell in its lane; see Journal.ClaimCell.
func (l *Lanes) ClaimCell(key string) (*Cell, error) { return l.Lane(key).ClaimCell(key) }

// ReleaseCell drops the claim on key, if held; see Journal.ReleaseCell.
func (l *Lanes) ReleaseCell(key string) { l.Lane(key).ReleaseCell(key) }

// Delete durably retires key in its lane; see Journal.Delete.
func (l *Lanes) Delete(key string) error { return l.Lane(key).Delete(key) }

// Values merges every lane's live state. Keys are disjoint across lanes
// (routing is deterministic), so the merge is a plain union.
func (l *Lanes) Values() map[string]uint64 {
	out := make(map[string]uint64, l.Keys())
	for _, j := range l.lanes {
		j.mu.Lock()
		j.valuesInto(out)
		j.mu.Unlock()
	}
	return out
}

// Keys returns the number of distinct counters across all lanes.
func (l *Lanes) Keys() int {
	n := 0
	for _, j := range l.lanes {
		n += j.Keys()
	}
	return n
}

// LogSize returns the medium's aggregate log size in bytes.
func (l *Lanes) LogSize() int64 {
	var n int64
	for _, j := range l.lanes {
		n += j.LogSize()
	}
	return n
}

// Appends returns the aggregate record count appended across lanes.
func (l *Lanes) Appends() uint64 {
	var n uint64
	for _, j := range l.lanes {
		n += j.Appends()
	}
	return n
}

// Syncs returns the aggregate fsync count across lanes.
func (l *Lanes) Syncs() uint64 {
	var n uint64
	for _, j := range l.lanes {
		n += j.Syncs()
	}
	return n
}

// Compactions returns the aggregate completed compactions across lanes.
func (l *Lanes) Compactions() uint64 {
	var n uint64
	for _, j := range l.lanes {
		n += j.Compactions()
	}
	return n
}

// RecoveryStats aggregates what every lane's open-time replay found.
func (l *Lanes) RecoveryStats() RecoveryStats {
	var rs RecoveryStats
	for _, j := range l.lanes {
		s := j.RecoveryStats()
		rs.FramesReplayed += s.FramesReplayed
		rs.FramesDropped += s.FramesDropped
		rs.TornTail = rs.TornTail || s.TornTail
	}
	return rs
}

// Quarantined returns the indices of poisoned lanes, in lane order; empty
// while the whole medium is healthy. A quarantined lane's keys' saves return
// its original error (Journal.Poisoned; never a retried "success"), while
// every other lane commits at full speed — the blast radius of a disk fault
// is the lane, not the medium.
func (l *Lanes) Quarantined() []int {
	var out []int
	for i, j := range l.lanes {
		if j.Poisoned() != nil {
			out = append(out, i)
		}
	}
	return out
}

// RepairLane rewrites lane's log from in-memory state merged (max-wins) with
// donor values, clearing its quarantine on success; see Journal.Repair.
// Donor keys that do not route to lane are ignored, so a whole-medium Values
// snapshot — a replication follower's, say — can be passed as-is.
func (l *Lanes) RepairLane(lane int, donor map[string]uint64) error {
	if lane < 0 || lane >= len(l.lanes) {
		return fmt.Errorf("store: repair lane %d: medium has %d lanes", lane, len(l.lanes))
	}
	var scoped map[string]uint64
	if len(donor) > 0 {
		scoped = make(map[string]uint64)
		for k, v := range donor {
			if l.laneOf(k) == lane {
				scoped[k] = v
			}
		}
	}
	return l.lanes[lane].Repair(scoped)
}

// Fence permanently rejects writes on every lane; see Journal.Fence. A
// cluster promotion fences the whole medium — a deposed primary must not
// advance any lane.
func (l *Lanes) Fence(err error) {
	for _, j := range l.lanes {
		j.Fence(err)
	}
}

// Fenced returns the first lane's fencing error, or nil while the medium
// accepts writes. Lanes are only ever fenced together (Fence above), so
// one lane speaks for all.
func (l *Lanes) Fenced() error {
	for _, j := range l.lanes {
		if err := j.Fenced(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every lane, returning the first error. Lane closes run
// concurrently: each lane's final flush and fsync overlap the others',
// exactly as their group commits do in steady state.
func (l *Lanes) Close() error {
	errs := make([]error, len(l.lanes))
	var wg sync.WaitGroup
	for i, j := range l.lanes {
		wg.Add(1)
		go func(i int, j *Journal) {
			defer wg.Done()
			errs[i] = j.Close()
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
