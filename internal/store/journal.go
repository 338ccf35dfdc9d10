package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"antireplay/internal/storefault"
)

// Journal file layout (big endian):
//
//	header:  4 bytes magic "ARJL" | 2 bytes version (2) | 2 bytes reserved
//	record:  2 bytes flags|key length | 8 bytes value | key |
//	         4 bytes CRC-32C (Castagnoli) of the preceding 10+n bytes
//
// The top bit of the length field marks a tombstone (the key's counter has
// been retired — an SA removed or rekeyed away); the low 15 bits are the key
// length n. Records only ever append and are replayed in order: within one
// key life the values are monotone counters, so the live value is the
// maximum since the key's last tombstone, and a tombstone erases the key so
// a later record starts a fresh life (a re-established SPI must not resume
// the retired SA's counter). A reset that tears the last record leaves
// every earlier record intact — exactly the persistent-memory property the
// paper assumes of SAVE.
//
// The checksum is CRC-32C, which commodity x86/arm64 compute in hardware:
// the per-record CRC costs a few nanoseconds instead of a table walk, which
// matters at millions of saves per second. Any other header version is
// refused with ErrCorrupt before a byte of the file is written.
const (
	journalMagic     = "ARJL"
	journalVersion   = 2
	journalHeaderLen = 8
	journalTombstone = 1 << 15
	journalMaxKey    = journalTombstone - 1
)

// castagnoli is the CRC-32C table; crc32.Checksum with it uses the hardware
// instruction where available.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// journalCRC returns a frame's checksum.
func journalCRC(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// DefaultCompactAt is the log size, in bytes, at which a lane compacts
// itself to one record per key.
const DefaultCompactAt = 1 << 20

// Journal is one commit lane of a Lanes medium, and exists only as that: one
// append-only, CRC-framed log file multiplexing the named counters of every
// SA routed to the lane, instead of one file + one fsync stream per SA.
//
// Save runs a pipelined group commit. The caller encodes its record frame
// outside any lock (a stack buffer; appendRecord allocates nothing), then
// holds the journal mutex only long enough to stage the frame — append its
// bytes to the staging buffer, assign a commit sequence number, and update
// the in-memory bookkeeping. The staged batch is drained by one elected
// committer at a time: it swaps the staging buffer for a spare slab,
// releases the mutex, and performs ONE write and ONE fsync for the whole
// group while later savers keep staging the next batch concurrently.
// Durability is acknowledged through a commit-sequence watermark (an atomic;
// a record numbered n is durable once the watermark exceeds n), so the
// commit pipeline — encode, stage, write+fsync, ack — keeps the per-record
// critical section free of syscalls and allocations. Delete appends a
// tombstone the same way, retiring a key when its SA is removed or rekeyed
// away.
//
// Recovery (at OpenLanes) replays the log in order — keeping the maximum
// value per key since the key's last tombstone — tolerates a torn tail (the
// record a reset interrupted fails its CRC and is discarded), and truncates
// the tail away so appends resume from a clean frame. When the log outgrows
// a threshold it is compacted to one record per live key (tombstoned keys
// vanish) via write-temp + fsync + rename + dir-fsync.
//
// Cell projects one key as a store.Store, so core.Sender / core.Receiver
// run unchanged over a shared lane; the paper's per-key guarantees (2K
// leap coverage, no replay acceptance) are preserved because each key's
// record stream is independent and monotone.
//
// Journal is safe for concurrent use.
type Journal struct {
	path string

	// mu guards all mutable state below. It is released only inside
	// cond.Wait and around the group-commit write+fsync itself, so staging
	// stays cheap while commits overlap it.
	mu   sync.Mutex
	cond *sync.Cond

	f storefault.File
	// Every key is one word (see wordOf): an SA key packs into it, any
	// other key (the cluster epoch, a probe cell) is interned into names on
	// first use. vals and claims are the only key tables; on disk a key is
	// always its exact bytes (appendKey).
	vals        map[uint64]uint64
	claims      map[uint64]bool
	names       []string          // interned named keys, by word index
	named       map[string]uint64 // named key -> word
	logSize     int64
	snapSize    int64 // what a one-record-per-key snapshot would occupy
	closed      bool
	ioErr       error // sticky append-path write error (poison; see poisonLocked)
	poisonFired bool  // onPoison already notified for the current poison
	fenceErr    error // sticky cluster fence; appends refused (see Fence)

	// Replication state (see tail.go). tail is a ring of the most recent
	// records of the logical append stream — bounded by cfg.tailCap — so
	// attached Tails can ship them; tailMin is the sequence number of the
	// ring's first record. syncTail, when set, gates save acknowledgment on
	// the follower's applied position.
	tails    map[*Tail]bool
	tail     tailRing
	tailMin  uint64
	syncTail *Tail

	// Commit-pipeline state. Every staged record gets a sequence number; a
	// record numbered n is durable once syncedSeq (the commit watermark,
	// readable with a single atomic load) exceeds n. stage accumulates the
	// encoded frames of records not yet written; whoever finds no commit in
	// flight becomes the committer: it swaps stage for the spare slab,
	// snapshots appendSeq, writes and fsyncs the batch outside the mutex,
	// and advances the watermark over everything it staged.
	appendSeq uint64
	syncedSeq atomic.Uint64
	stage     []byte
	spare     []byte // the committer's double buffer, reused batch to batch
	syncing   bool   // a committer owns the pipeline (write+fsync in flight)
	failedSeq uint64
	syncErr   error

	cfg  *lanesConfig // the medium's options, shared by its lanes; read-only
	lane int          // lane index within the Lanes medium

	counts LaneStats // the counters; stats fills in the rest
}

// tailRing is a ring buffer of recent TailRecords: pushes are O(1) and the
// periodic trim back to the retained window advances the head instead of
// memmoving the survivors — the O(window) shift the old slice-based buffer
// paid on every overflow. The backing slice is a power of two, grown on
// demand until the configured window fits.
type tailRing struct {
	buf  []TailRecord // power-of-two length once allocated
	head int          // index of the logical first record
	n    int          // live records
}

func (r *tailRing) push(rec TailRecord) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = rec
	r.n++
}

func (r *tailRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 64
	}
	buf := make([]TailRecord, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf, r.head = buf, 0
}

func (r *tailRing) at(i int) TailRecord { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// drop releases the k oldest records, zeroing them so their key strings are
// collectable.
func (r *tailRing) drop(k int) {
	for i := 0; i < k; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = TailRecord{}
	}
	r.head = (r.head + k) & (len(r.buf) - 1)
	r.n -= k
}

// RecoveryStats reports what one lane's open-time replay found: how many
// CRC-valid frames were applied, how many damaged regions were skipped
// (each region is one or more frames whose original boundaries are
// unknowable, so it counts once), and whether a torn tail was truncated.
// FramesDropped > 0 means the medium damaged an already-written region —
// data loss that recovery now survives and surfaces instead of silently
// truncating everything behind it.
type RecoveryStats struct {
	FramesReplayed uint64
	FramesDropped  uint64
	TornTail       bool
}

// LaneStats is one lane's counters, read under one hold of its mutex.
type LaneStats struct {
	Keys        int    // distinct live counters
	LogSize     int64  // log bytes
	Appends     uint64 // records appended through this handle
	Syncs       uint64 // fsyncs: group commits, compactions and setup
	Compactions uint64
	Rescues     uint64        // ENOSPC write failures absorbed by an emergency compaction
	Repairs     uint64        // repairs that cleared or rewrote the lane (RepairLane)
	Recovery    RecoveryStats // what the open-time replay found
	Poisoned    error         // the sticky I/O error quarantining the lane, or nil
}

// stats reads every counter of the lane at once.
func (j *Journal) stats() LaneStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.counts
	s.Keys, s.LogSize, s.Poisoned = len(j.vals), j.logSize, j.ioErr
	return s
}

// openJournal opens (or creates) lane's log at path and recovers its state
// by replaying it: the value of each key is the maximum over its valid
// records, a damaged mid-log region is skipped (see RecoveryStats), and a
// torn or corrupt tail is truncated away. A corrupt header returns
// ErrCorrupt.
func openJournal(path string, lane int, cfg *lanesConfig) (*Journal, error) {
	j := &Journal{
		path:     path,
		cfg:      cfg,
		lane:     lane,
		vals:     make(map[uint64]uint64),
		claims:   make(map[uint64]bool),
		named:    make(map[string]uint64),
		snapSize: journalHeaderLen,
	}
	j.cond = sync.NewCond(&j.mu)
	if err := j.recover(); err != nil {
		return nil, err
	}
	return j, nil
}

// Key words. An SA key — "tx/xxxxxxxx" or "rx/xxxxxxxx", exactly eight
// lowercase hex digits, the format ipsec.OutboundKey/InboundKey pin on disk
// — packs losslessly into its word: bit 33 marks the word as packed, bit 32
// carries the direction, the low 32 bits the SPI. Any other key is interned
// per journal on first use, and its word is namedMark plus its index into
// names. appendKey inverts both, so the representation never changes which
// bytes reach the log.
const (
	spiKeyLen   = 11
	packedMark  = 1 << 33 // distinguishes a packed word from any zero value
	packedRxBit = 1 << 32 // direction: set for "rx/", clear for "tx/"
	namedMark   = 1 << 34 // an interned key: the low bits index names
)

// packKey packs an SA-shaped key held as either string or []byte.
func packKey[K string | []byte](k K) (uint64, bool) {
	if len(k) != spiKeyLen || k[2] != '/' || k[1] != 'x' {
		return 0, false
	}
	var pk uint64
	switch k[0] {
	case 't':
	case 'r':
		pk = packedRxBit
	default:
		return 0, false
	}
	var spi uint64
	for i := 3; i < spiKeyLen; i++ {
		c := k[i]
		switch {
		case c >= '0' && c <= '9':
			spi = spi<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			spi = spi<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return packedMark | pk | spi, true
}

// wordOf returns key's word in j, interning a named key on first use (mu
// held). Looking up a []byte key allocates nothing, so replay materializes
// a string only the first time it meets a named key.
func wordOf[K string | []byte](j *Journal, key K) uint64 {
	if w, ok := packKey(key); ok {
		return w
	}
	if w, ok := j.named[string(key)]; ok {
		return w
	}
	name := string(key)
	w := namedMark | uint64(len(j.names))
	j.names = append(j.names, name)
	j.named[name] = w
	return w
}

// appendKey appends word w's key to buf as its exact on-disk bytes (mu
// held).
func (j *Journal) appendKey(buf []byte, w uint64) []byte {
	if w&namedMark != 0 {
		return append(buf, j.names[w&^namedMark]...)
	}
	dir := "tx/"
	if w&packedRxBit != 0 {
		dir = "rx/"
	}
	buf = append(buf, dir...)
	for i := 0; i < 8; i++ {
		buf = append(buf, hexDigits[(w>>(28-4*i))&0xf])
	}
	return buf
}

const hexDigits = "0123456789abcdef"

// valuesInto copies the value table into out under the keys' string names
// — the shape Values and Tail.Snapshot expose — and returns it (mu held).
func (j *Journal) valuesInto(out map[string]uint64) map[string]uint64 {
	var kb [spiKeyLen]byte
	for w, v := range j.vals {
		out[string(j.appendKey(kb[:0], w))] = v
	}
	return out
}

// recover replays the log into j.vals and leaves j.f positioned for appends.
func (j *Journal) recover() error {
	data, err := j.cfg.fs.ReadFile(j.path)
	if os.IsNotExist(err) {
		return j.create()
	}
	if err != nil {
		return fmt.Errorf("store: journal read: %w", err)
	}
	if len(data) < journalHeaderLen {
		// A reset between create and the header write can leave a short
		// file; nothing was ever saved, so start fresh.
		return j.create()
	}
	if string(data[0:4]) != journalMagic {
		return fmt.Errorf("%w: journal magic %q", ErrCorrupt, data[0:4])
	}
	if ver := binary.BigEndian.Uint16(data[4:6]); ver != journalVersion {
		return fmt.Errorf("%w: journal version %d, want %d", ErrCorrupt, ver, journalVersion)
	}

	// Replay every CRC-valid frame, in order. A frame that does not parse
	// starts a damaged region; the byte-wise probe looks for a valid frame
	// behind it. When none follows, the region is a torn tail — exactly
	// what a crash leaves (group commit write()s several records per
	// fsync, and writeback filesystems persist dirty pages in any order),
	// and none of those records were covered by a completed SAVE, so the
	// tail is truncated away. When valid frames DO follow, the damage is
	// mid-log: media corruption, or a multi-page power-loss tear whose
	// later pages persisted before earlier ones. Recovery then skips the
	// damaged region and keeps replaying — replaying more than was
	// acknowledged is always safe (counters are monotone; a larger
	// recovered value only widens the wake-up sacrifice, never re-accepts
	// a replay), whereas the old truncate-everything-behind-it answer
	// silently rolled durable counters back. The skip is surfaced through
	// RecoveryStats (the medium's collector emits it);
	// LanesStrictRecovery instead refuses the open (ErrCorrupt), for
	// deployments that want a human in the loop before trusting a medium
	// that damaged an acknowledged record.
	if len(data) > 64*journalFrameOverhead {
		// Presize for replay: SA frames are spiKeyLen-keyed, so the frame
		// count is close to size/(overhead+spiKeyLen); duplicates per key
		// only make this an overestimate, which is what a presize wants.
		j.vals = make(map[uint64]uint64, len(data)/(journalFrameOverhead+spiKeyLen))
	}
	off := journalHeaderLen
	for off < len(data) {
		kb, v, del, n, ok := parseFrame(data[off:])
		if !ok {
			next := probeValidFrame(data, off+1)
			if next < 0 {
				break // torn tail: truncate from off
			}
			if j.cfg.strictRecovery {
				return fmt.Errorf("%w: journal record at offset %d (valid records follow)", ErrCorrupt, off)
			}
			j.counts.Recovery.FramesDropped++
			off = next
			continue
		}
		j.counts.Recovery.FramesReplayed++
		// One word per key: a packed key never materializes a string, so a
		// million-record replay allocates nothing per record.
		w := wordOf(j, kb)
		if del {
			if _, seen := j.vals[w]; seen {
				j.snapSize -= int64(n)
				delete(j.vals, w)
			}
		} else if cur, seen := j.vals[w]; !seen || v > cur {
			if !seen {
				j.snapSize += int64(n)
			}
			j.vals[w] = v
		}
		off += n
	}
	j.counts.Recovery.TornTail = off < len(data)

	f, err := j.cfg.fs.OpenFile(j.path, os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("store: journal open: %w", err)
	}
	if off < len(data) {
		// Discard the torn tail so the next append starts a clean frame.
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return fmt.Errorf("store: journal truncate tail: %w", err)
		}
		if j.cfg.sync {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("store: journal sync truncation: %w", err)
			}
			j.counts.Syncs++
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: journal seek: %w", err)
	}
	j.f = f
	j.logSize = int64(off)
	return nil
}

// create writes a fresh journal file (header only) and syncs it and its
// directory so the journal itself survives a reset.
func (j *Journal) create() error {
	f, err := j.cfg.fs.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("store: journal create: %w", err)
	}
	if _, err := f.Write(appendHeader(nil)); err != nil {
		f.Close()
		return fmt.Errorf("store: journal write header: %w", err)
	}
	if j.cfg.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: journal sync header: %w", err)
		}
		j.counts.Syncs++
		if err := syncDir(j.cfg.fs, filepath.Dir(j.path)); err != nil {
			f.Close()
			return err
		}
		j.counts.Syncs++
	}
	j.f = f
	j.logSize = journalHeaderLen
	return nil
}

// appendHeader encodes the journal file header.
func appendHeader(buf []byte) []byte {
	buf = append(buf, journalMagic...)
	buf = binary.BigEndian.AppendUint16(buf, journalVersion)
	return append(buf, 0, 0)
}

// minRecordLen is the size of a frame with an empty key (which save()
// rejects, so every real frame is larger); journalFrameOverhead is the
// same quantity read as "frame bytes that are not key bytes".
const (
	minRecordLen         = 2 + 8 + 4
	journalFrameOverhead = minRecordLen
)

// frameLen is the encoded size of a (non-tombstone) frame for key; every
// save record of one key has the same size, which keeps the snapshot-size
// accounting exact across deletes.
func frameLen(key string) int64 { return int64(2 + 8 + len(key) + 4) }

// parseFrame decodes one frame from b, returning the key (aliasing b —
// replay consumes it without allocating), the value, the tombstone flag,
// the encoded length, and whether the frame was complete and CRC-valid.
func parseFrame(b []byte) (key []byte, v uint64, del bool, n int, ok bool) {
	if len(b) < minRecordLen {
		return nil, 0, false, 0, false
	}
	lf := binary.BigEndian.Uint16(b[0:2])
	kn := int(lf &^ journalTombstone)
	total := 2 + 8 + kn + 4
	if len(b) < total {
		return nil, 0, false, 0, false
	}
	body := b[:2+8+kn]
	want := binary.BigEndian.Uint32(b[2+8+kn : total])
	if journalCRC(body) != want {
		return nil, 0, false, 0, false
	}
	return b[10 : 10+kn], binary.BigEndian.Uint64(b[2:10]), lf&journalTombstone != 0, total, true
}

// probeValidFrame scans for the next CRC-valid frame at or after start,
// byte-wise, so a corrupt length field cannot hide the records behind it;
// a chance CRC match over garbage has probability 2^-32 per offset. CRC
// work is budgeted so a large damaged region cannot turn the open into an
// O(region²) stall; exhausting the budget without a valid frame returns -1,
// the tear verdict.
func probeValidFrame(data []byte, start int) int {
	budget := int64(1 << 22)
	for probe := start; probe+minRecordLen <= len(data) && budget > 0; probe++ {
		// The CRC only runs over complete frames; bill their declared
		// length against the budget.
		n2 := int(binary.BigEndian.Uint16(data[probe:probe+2]) &^ journalTombstone)
		if probe+2+8+n2+4 > len(data) {
			continue // incomplete frame: no CRC computed
		}
		if _, _, _, _, ok := parseFrame(data[probe:]); ok {
			return probe
		}
		budget -= int64(2 + 8 + n2 + 4)
	}
	return -1
}

// appendRecord appends one frame for key, held as a string (a save) or as
// bytes (compaction's appendKey output).
func appendRecord[K string | []byte](buf []byte, key K, v uint64, del bool) []byte {
	start := len(buf)
	lf := uint16(len(key))
	if del {
		lf |= journalTombstone
	}
	buf = binary.BigEndian.AppendUint16(buf, lf)
	buf = binary.BigEndian.AppendUint64(buf, v)
	buf = append(buf, key...)
	return binary.BigEndian.AppendUint32(buf, journalCRC(buf[start:]))
}

// framePool recycles encode scratch buffers so record framing (CRC
// included) runs outside the journal mutex without a per-record allocation.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 128)
	return &b
}}

// append is the shared save/tombstone path (Cell.Save, Delete): stage the
// record, then wait until it is durable (or, without sync, written). Many
// concurrent appends share one fsync.
func (j *Journal) append(key string, v uint64, del bool) error {
	seq, staged, err := j.stageRecord(key, v, del)
	if !staged {
		return err
	}
	return j.waitDurable(seq)
}

// stageRecord is the first half of append: it encodes the frame into a pooled
// scratch buffer before the mutex is taken — the mutex-held work is a memcpy
// and map/ring bookkeeping: no CRC, no syscall, no allocation — and returns
// the record's commit sequence number without waiting for durability. staged
// is false when nothing was staged: an error, or a tombstone for a key with
// no durable state (a no-op).
func (j *Journal) stageRecord(key string, v uint64, del bool) (seq uint64, staged bool, err error) {
	if len(key) == 0 || len(key) > journalMaxKey {
		return 0, false, fmt.Errorf("%w: length %d", ErrBadKey, len(key))
	}
	bp := framePool.Get().(*[]byte)
	rec := appendRecord((*bp)[:0], key, v, del)
	j.mu.Lock()
	if err = j.usableLocked(); err == nil {
		w := wordOf(j, key)
		if _, seen := j.vals[w]; seen || !del {
			seq, staged = j.stageLocked(w, key, v, del, rec), true
		}
	}
	j.mu.Unlock()
	*bp = rec[:0] // staged (copied) or dropped; recycle the scratch, grown or not
	framePool.Put(bp)
	return seq, staged, err
}

// waitDurable is the second half of append: it blocks until the staged
// record numbered seq is durable, committing the staged batch itself when no
// commit is in flight. Staging several records and then waiting for each
// costs one write and one fsync for the lot: the first wait commits
// everything staged so far and the rest return on the watermark.
func (j *Journal) waitDurable(seq uint64) error {
	j.mu.Lock()
	return j.commitStagedLocked(seq)
}

// usableLocked reports why the journal cannot accept an append: poisoned by
// an earlier I/O error, closed, or fenced off by a cluster promotion. Poison
// outranks the other two — the original I/O failure is the actionable fact,
// and a Close or fence that lands after the failure must not launder it into
// a generic ErrClosed/ErrFenced.
func (j *Journal) usableLocked() error {
	switch {
	case j.ioErr != nil:
		return j.ioErr
	case j.closed:
		return ErrClosed
	case j.fenceErr != nil:
		return j.fenceErr
	default:
		return nil
	}
}

// poisonLocked records a permanent I/O failure (mu held): the first call
// sets the sticky error and fires the LanesOnPoison hook; later calls keep
// the original error. Poison is the fsyncgate-correct answer to a failed
// sync — the kernel may have marked the lost dirty pages clean, so retrying
// the fsync could "succeed" over holes — and to a partial write, which
// leaves a torn frame under anything appended after it. The journal refuses
// everything until repair rewrites the log from in-memory state.
func (j *Journal) poisonLocked(err error) {
	if j.ioErr == nil {
		j.ioErr = err
	}
	if !j.poisonFired {
		j.poisonFired = true
		if j.cfg.onPoison != nil {
			j.cfg.onPoison(j.lane, j.ioErr)
		}
	}
}

// poisoned returns the sticky I/O error that quarantined this journal, or
// nil. Unlike Save it never reports closed/fenced states: only a real media
// failure shows here, which is exactly what lane-health checks key off.
func (j *Journal) poisoned() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ioErr
}

// repair clears a poisoned journal by rewriting the log from in-memory
// state, optionally merged (max-wins) with donor values — the same lane of a
// replication follower (Lanes.RepairLane), which may carry records the failed
// local commit lost. The rewrite reuses the compaction path: write a temp,
// fsync, rename over the wedged log, fsync the directory, reopen — the old
// inode, torn frames and unsynced pages included, is discarded wholesale. On
// success the poison, the failed-batch record, and the fired hook are all
// cleared, so the journal accepts appends again and a later failure re-fires
// LanesOnPoison. Repairing a closed or fenced journal is refused;
// repairing a healthy one is allowed (it is a forced compaction plus merge).
//
// A repair restores the medium, not the endpoints: SAs that saw the poison are
// stalled at their durable horizon and resume via the gateway's WakeAll —
// paying the usual reset sacrifice — once the lane is writable again.
func (j *Journal) repair(donor map[string]uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.cond.Wait()
	}
	if j.closed {
		return ErrClosed
	}
	if j.fenceErr != nil {
		return j.fenceErr
	}
	for key, v := range donor {
		w := wordOf(j, key)
		if cur, ok := j.vals[w]; !ok || v > cur {
			j.vals[w] = v
		}
	}
	prev := j.ioErr
	j.ioErr = nil
	if err := j.compactLocked(); err != nil {
		if j.ioErr == nil {
			j.ioErr = prev
		}
		return err
	}
	j.failedSeq = 0
	j.syncErr = nil
	j.poisonFired = false
	j.counts.Repairs++
	j.cond.Broadcast()
	return nil
}

// stageLocked stages one encoded record frame: the bookkeeping that must be
// atomic with sequence assignment (vals, sizes, the tail ring) plus a
// memcpy of the frame into the staging buffer; w is key's word. The caller
// holds mu and has already validated the key and journal state; durability
// is the caller's next step (commitStagedLocked).
func (j *Journal) stageLocked(w uint64, key string, v uint64, del bool, rec []byte) uint64 {
	j.counts.Appends++
	j.logSize += int64(len(rec))
	if del {
		j.snapSize -= frameLen(key)
		delete(j.vals, w)
	} else if cur, seen := j.vals[w]; !seen || v > cur {
		if !seen {
			j.snapSize += int64(len(rec))
		}
		j.vals[w] = v
	}
	mySeq := j.appendSeq
	j.appendSeq++
	j.stage = append(j.stage, rec...)
	if len(j.tails) > 0 {
		// The record joins the retained tail window even before it is
		// durable; Recv gates delivery on syncedSeq, so readers never see it
		// early. Trimming past a slow reader's cursor is fine — it
		// resynchronizes by snapshot (ErrTailLagged). The ring trims by
		// advancing its head: no memmove of the retained window, so a
		// lagging follower costs staging nothing but the zeroing of the shed
		// records.
		j.tail.push(TailRecord{Seq: mySeq, Key: key, Val: v, Del: del})
		if j.tail.n >= 2*j.cfg.tailCap {
			over := j.tail.n - j.cfg.tailCap
			j.tail.drop(over)
			j.tailMin += uint64(over)
		}
	} else {
		// No attached readers: retaining records would only churn the ring's
		// cache lines. Keep the window empty and positioned at the stream
		// head, where a future Follow will attach anyway.
		j.tailMin = j.appendSeq
	}
	return mySeq
}

// commitStagedLocked drives the commit pipeline for the staged record
// numbered mySeq; it is entered with mu held and releases it before
// returning. Whoever finds no commit in flight becomes the committer for
// the whole staged batch: it swaps the staging buffer for the spare slab
// and, outside the mutex, performs one write and (with sync enabled) one
// fsync for the group, then advances the commit watermark over it — later
// savers stage the next batch concurrently with the I/O. The rest wait on
// the watermark. With a registered sync follower the save is only
// acknowledged once the follower's Ack covers the record too — replication
// joins fsync as part of the durability contract.
func (j *Journal) commitStagedLocked(mySeq uint64) error {
	yielded := false
	for {
		// A fence set while the record was in flight wins over completion:
		// reporting an already-replicated save as fenced is conservative
		// (the medium is monotone; the endpoint just retries and backs
		// off), whereas acknowledging a write on a deposed primary is not.
		if j.fenceErr != nil {
			err := j.fenceErr
			j.mu.Unlock()
			return err
		}
		if j.syncedSeq.Load() > mySeq {
			t := j.syncTail
			if t == nil || t.ackNext > mySeq || j.closed {
				j.mu.Unlock()
				return nil
			}
			// Locally durable but not yet applied by the sync follower.
			j.cond.Wait()
			continue
		}
		// The poison check must come before committer election: a record
		// staged while the failing commit was in flight has
		// mySeq >= failedSeq, and letting it commit "successfully" would
		// acknowledge a record sitting behind the lost pages.
		if j.ioErr != nil {
			err := j.ioErr
			j.mu.Unlock()
			return err
		}
		if j.failedSeq > mySeq {
			err := j.syncErr
			j.mu.Unlock()
			return err
		}
		if !j.syncing {
			if !yielded {
				// Yield once before electing: concurrent savers mid-append
				// get a chance to stage into this batch, so the commit that
				// follows covers a group instead of a single record — a
				// commit delay of ~100ns instead of a timer tick, and the
				// lever that keeps batches forming even on a single-CPU
				// host where the committer would otherwise run before
				// anyone else could stage.
				yielded = true
				j.mu.Unlock()
				runtime.Gosched()
				j.mu.Lock()
				continue
			}
			j.commitBatchLocked()
			continue
		}
		j.cond.Wait()
	}
}

// commitBatchLocked runs one batch through the write+fsync stage of the
// pipeline as the elected committer. Entered with mu held and j.syncing
// false; returns with mu held. On return the batch it drained is either
// covered by the watermark or recorded as failed.
func (j *Journal) commitBatchLocked() {
	j.syncing = true
	if j.cfg.sync && j.cfg.batchDelay > 0 {
		// Linger so concurrent saves can join this batch. mu is released:
		// stagings proceed during the wait and are covered by the swap
		// below.
		j.mu.Unlock()
		time.Sleep(j.cfg.batchDelay)
		j.mu.Lock()
	}
	// Compact when the log is both past the threshold and at least twice
	// what the snapshot would occupy — the second condition keeps a journal
	// whose key population alone exceeds compactAt from re-compacting on
	// every save. Compaction subsumes this batch's write AND fsync: the
	// snapshot is taken from j.vals, which already reflects every staged
	// record, so on success the staged frames are simply discarded. An
	// early failure (old log intact) falls through to a normal commit; a
	// late failure poisons the journal and the waiters surface it.
	if j.cfg.compactAt > 0 && j.logSize >= j.cfg.compactAt && j.logSize >= 2*j.snapSize {
		if err := j.compactLocked(); err == nil || j.ioErr != nil {
			j.syncing = false
			j.cond.Broadcast()
			return
		}
	}
	buf := j.stage
	j.stage = j.spare[:0]
	j.spare = nil // owned by this commit until it completes
	target := j.appendSeq
	f := j.f
	if j.cfg.sync {
		j.counts.Syncs++
	}
	j.mu.Unlock()

	var werr error
	syncStep := false
	if len(buf) > 0 {
		_, werr = f.Write(buf)
	}
	if werr == nil && j.cfg.sync {
		syncStep = true
		werr = f.Sync()
	}

	j.mu.Lock()
	j.syncing = false
	j.spare = buf[:0]
	if werr == nil {
		if target > j.syncedSeq.Load() {
			j.syncedSeq.Store(target)
		}
		j.cond.Broadcast()
		return
	}
	if !syncStep && errors.Is(werr, syscall.ENOSPC) && j.ioErr == nil && j.fenceErr == nil && !j.closed {
		// A full disk at the WRITE step is the one failure worth a rescue:
		// nothing was fsynced yet, the torn frame the partial write left is
		// exactly what compaction's rename discards (the old inode goes away
		// wholesale), and one record per key is the smallest this log can
		// get. The snapshot is taken from j.vals, which already reflects the
		// failed batch, so on success the batch is durable and the watermark
		// covers it. If even the snapshot does not fit, compaction's own
		// error poisons below. ENOSPC from the SYNC step never rescues:
		// fsyncgate applies regardless of errno.
		if cerr := j.compactLocked(); cerr == nil {
			j.counts.Rescues++
			j.cond.Broadcast()
			return
		}
	}
	syncErr := fmt.Errorf("store: journal commit: %w", werr)
	if target > j.failedSeq {
		j.failedSeq = target
		j.syncErr = syncErr
	}
	// Poison the journal: a partial write leaves a torn frame under later
	// appends, and after a failed fsync the kernel may mark the lost pages
	// clean (fsync reports an error once), so a LATER fsync can succeed
	// while this batch's records are holes — recovery would then truncate
	// records we acknowledged after the failure. Force a reopen or a Repair
	// instead.
	j.poisonLocked(syncErr)
	j.cond.Broadcast()
}

// compactLocked rewrites the journal as one record per key (mu held). The
// snapshot is written to a temp file, synced, and renamed over the log, so
// a reset during compaction leaves the old log intact; afterwards every
// value staged so far is durable — the snapshot is taken from j.vals, which
// already reflects every staged record, so the staging buffer is discarded
// and the watermark jumps to appendSeq. An early failure (before the
// rename) leaves the journal fully usable on the old log and is retried at
// the next threshold crossing; failures past the rename poison the journal
// as described inline.
func (j *Journal) compactLocked() error {
	dir := filepath.Dir(j.path)
	tmp, err := j.cfg.fs.CreateTemp(dir, filepath.Base(j.path)+".compact*")
	if err != nil {
		return fmt.Errorf("store: journal compact temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(step string, cause error) error {
		tmp.Close()
		j.cfg.fs.Remove(tmpName)
		return fmt.Errorf("store: journal compact %s: %w", step, cause)
	}

	buf := make([]byte, 0, journalHeaderLen+len(j.vals)*32)
	buf = appendHeader(buf)
	var kb []byte
	for w, v := range j.vals {
		kb = j.appendKey(kb[:0], w)
		buf = appendRecord(buf, kb, v, false)
	}
	if _, err := tmp.Write(buf); err != nil {
		return fail("write", err)
	}
	if j.cfg.sync {
		if err := tmp.Sync(); err != nil {
			return fail("sync", err)
		}
		j.counts.Syncs++
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := j.cfg.fs.Rename(tmpName, j.path); err != nil {
		j.cfg.fs.Remove(tmpName)
		return fmt.Errorf("store: journal compact rename: %w", err)
	}
	// Past the rename the old log inode is unlinked: any failure before the
	// handle is swapped must poison the journal, or later appends would
	// land on the unlinked inode and report durability for writes a reboot
	// cannot see.
	if j.cfg.sync {
		if err := syncDir(j.cfg.fs, dir); err != nil {
			j.poisonLocked(err)
			return err
		}
		j.counts.Syncs++
	}

	f, err := j.cfg.fs.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		err = fmt.Errorf("store: journal compact reopen: %w", err)
		j.poisonLocked(err)
		return err
	}
	j.f.Close()
	j.f = f
	j.logSize = int64(len(buf))
	j.snapSize = int64(len(buf)) // exact by construction: one record per key
	j.counts.Compactions++
	// The snapshot holds every value ever staged: all outstanding saves are
	// now durable, and any still-staged frames are redundant with it.
	j.stage = j.stage[:0]
	if j.appendSeq > j.syncedSeq.Load() {
		j.syncedSeq.Store(j.appendSeq)
	}
	j.cond.Broadcast()
	return nil
}

// fetch returns the recovered/saved value for key.
func (j *Journal) fetch(key string) (uint64, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, false, ErrClosed
	}
	v, ok := j.vals[wordOf(j, key)]
	return v, ok, nil
}

// Cell returns a Store view of one key: core.Sender and core.Receiver take
// it as their durable store, sharing the journal's single fsync stream with
// every other cell.
func (j *Journal) Cell(key string) *Cell { return &Cell{j: j, key: key} }

// ClaimCell returns the cell for key after registering an exclusive
// in-process claim on it. A second ClaimCell for the same key fails with
// ErrCellClaimed until ReleaseCell: the journal's key namespace is global,
// so two endpoints writing one cell would interleave counters — claims make
// that a refusal instead of silent sequence reuse. (Cross-process exclusion
// is the caller's concern, as with any store file.)
func (j *Journal) ClaimCell(key string) (*Cell, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	w := wordOf(j, key)
	if j.claims[w] {
		return nil, fmt.Errorf("%w: %q", ErrCellClaimed, key)
	}
	j.claims[w] = true
	return &Cell{j: j, key: key}, nil
}

// ReleaseCell drops the exclusive claim on key, if held.
func (j *Journal) ReleaseCell(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.claims, wordOf(j, key))
}

// Delete durably retires key: a tombstone record is appended and
// group-committed, the key disappears from fetches and from the next
// compaction, and a later save under the same key starts a fresh counter
// life. This is the disposal half of an SA's journal cell — a removed or
// rekeyed-away SA must not leave a counter behind for a re-established SPI
// to resurrect. Deleting a key with no durable state is a no-op; any
// in-process claim on the key is untouched (release it separately).
func (j *Journal) Delete(key string) error { return j.append(key, 0, true) }

// Cell is one key of a Journal, seen through the Store interface.
type Cell struct {
	j   *Journal
	key string
}

var _ Store = (*Cell)(nil)
var _ Stager = (*Cell)(nil)

// Save durably appends v to the journal under the cell's key: Stage, then
// WaitDurable.
func (c *Cell) Save(v uint64) error { return c.j.append(c.key, v, false) }

// Stage appends v's record to the lane's staging buffer and returns its
// commit sequence number without waiting for the record to be durable; the
// save is complete only once WaitDurable(seq) returns nil. A caller holding
// several cells stages them all and then waits for each, so one write and
// one fsync per lane cover the lot (SaverPool's rounds).
func (c *Cell) Stage(v uint64) (seq uint64, err error) {
	seq, _, err = c.j.stageRecord(c.key, v, false)
	return seq, err
}

// WaitDurable blocks until the record Stage numbered seq is durable in the
// cell's lane, or returns the error that keeps it from being so.
func (c *Cell) WaitDurable(seq uint64) error { return c.j.waitDurable(seq) }

// Fetch returns the cell's recovered or last saved value.
func (c *Cell) Fetch() (uint64, bool, error) { return c.j.fetch(c.key) }

// Lane returns the index of the commit lane this cell persists into.
// SaverPool routes handles by this value, so all of one lane's background
// saves drain on one worker and group-commit into that lane's fsyncs.
func (c *Cell) Lane() int { return c.j.lane }

// Poisoned returns the sticky I/O error that quarantined the cell's lane, or
// nil. SaverPool uses it to fail a save into a poisoned lane fast instead of
// retrying a sync whose page-cache state is undefined.
func (c *Cell) Poisoned() error { return c.j.poisoned() }

// Close waits for any in-flight group commit, commits whatever is still
// staged through the one commit path, and closes the log. Further saves and
// fetches return ErrClosed. A journal poisoned before or by that last commit
// reports its original failure: the shutdown must not launder a durability
// loss into a clean exit.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	for j.syncing {
		j.cond.Wait()
	}
	if j.ioErr == nil && j.syncedSeq.Load() < j.appendSeq {
		j.commitBatchLocked()
	}
	err := j.ioErr
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: journal close: %w", cerr)
	}
	j.cond.Broadcast()
	return err
}

// syncDir fsyncs a directory through fsys, making a completed rename within
// it durable. The Windows no-op (directory handles cannot be flushed there)
// lives in the FS implementation, so fault schedules can still target the
// operation by op kind.
func syncDir(fsys storefault.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
