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
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

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
// itself to one record per key (once the log is also twice its snapshot), so
// a reopen replays at most this much history or twice the live state.
const DefaultCompactAt = 64 << 10

// Journal is one commit lane of a Lanes medium, and exists only as that: one
// append-only, CRC-framed log file multiplexing the named counters of every
// SA routed to the lane, instead of one file + one fsync stream per SA.
//
// Each key is one Cell, found by its word in one table and holding the key's
// state. A Cell is the key as a store.Store, so core.Sender / core.Receiver
// run unchanged over a shared lane; the paper's per-key guarantees (2K leap
// coverage, no replay acceptance) hold because each key's record stream is
// independent and monotone.
//
// Save stages, then commits. Under the mutex the saver encodes its frame
// from the key's word straight into the staging buffer, numbers it and
// updates the Cell: a lane has one saver at a time (its SaverPool worker, or
// a wake's lane batch), so encoding outside the lock would gain nothing. An
// elected committer then writes and fsyncs the whole staged batch outside
// the mutex, while later savers stage the next (commitStagedLocked). Delete
// appends a tombstone the same way.
//
// Recovery (at OpenLanes) replays the log in order — keeping the maximum
// value per key since the key's last tombstone — tolerates a torn tail (the
// record a reset interrupted fails its CRC and is discarded), and truncates
// the tail away so appends resume from a clean frame. When the log outgrows
// a threshold it is compacted to one record per live key (tombstoned keys
// vanish) via write-temp + fsync + rename + dir-fsync.
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
	// first use. cells is the one key table: a key's Cell is in it while the
	// key is live or claimed (see Cell). On disk a key is always its exact
	// bytes (appendKey).
	cells       map[uint64]*Cell
	names       []string          // interned named keys, by word index
	named       map[string]uint64 // named key -> word
	logSize     int64
	snapSize    int64 // what a one-record-per-key snapshot would occupy
	closed      bool
	ioErr       error // sticky append-path write error (poison; see poisonLocked)
	poisonFired bool  // onPoison already notified for the current poison
	fenceErr    error // sticky cluster fence; appends refused (see Fence)

	// Replication state (see tail.go). follower, when attached, gates save
	// acknowledgment on its applied position; tail holds every record it
	// has not acknowledged, the first numbered tailMin, each by its key's
	// word.
	follower *Tail
	tail     tailRing
	tailMin  uint64

	// Commit-pipeline state (see commitStagedLocked). A record numbered n
	// is durable once syncedSeq, the commit watermark, exceeds n; stage
	// holds the frames of records not yet written.
	appendSeq uint64
	syncedSeq atomic.Uint64
	stage     []byte
	spare     []byte // the committer's double buffer, reused batch to batch
	syncing   bool   // a committer owns the pipeline (write+fsync in flight)
	failedSeq uint64
	syncErr   error

	cfg  *lanesConfig // the medium's options, shared by its lanes; read-only
	lane int          // lane index within the Lanes medium

	counts LaneStats // the counters, Keys the live ones; stats fills in the rest
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
	s.LogSize, s.Poisoned = j.logSize, j.ioErr
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
		cells:    make(map[uint64]*Cell),
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
// bytes reach the log. A bad key (empty, or longer than journalMaxKey) has
// word 0, which no key table holds.
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
	var bad byte
	for i := 3; i < spiKeyLen; i++ {
		d := unhex[k[i]]
		bad |= d
		spi = spi<<4 | uint64(d&0xf)
	}
	if bad&badHex != 0 {
		return 0, false
	}
	return packedMark | pk | spi, true
}

// unhex maps a lowercase hex digit to its value and any other byte to
// badHex, so packKey's digit loop has no branch for a random SPI to
// mispredict.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = badHex
	}
	for i := 0; i < len(hexDigits); i++ {
		t[hexDigits[i]] = byte(i)
	}
	return t
}()

const badHex = 0x10 // above every digit's value

// wordOf returns key's word in j, interning a copy of a named key on first
// use, so no caller's key outlives the call (mu held). Looking up a []byte
// key allocates nothing, so replay materializes a string only the first
// time it meets a named key. A bad key returns 0 and is not interned.
func wordOf[K string | []byte](j *Journal, key K) uint64 {
	if w, ok := packKey(key); ok {
		return w
	}
	if len(key) == 0 || len(key) > journalMaxKey {
		return 0
	}
	if w, ok := j.named[string(key)]; ok {
		return w
	}
	name := strings.Clone(string(key))
	w := namedMark | uint64(len(j.names))
	j.names = append(j.names, name)
	j.named[name] = w
	return w
}

// appendKey appends word w's key to buf as its exact on-disk bytes (mu
// held for a named key; a packed one reads nothing of j).
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

// valuesInto copies the live values into out under the keys' string names
// — the shape Values and Tail.Snapshot expose — and returns it (mu held).
func (j *Journal) valuesInto(out map[string]uint64) map[string]uint64 {
	var kb [spiKeyLen]byte
	for w, c := range j.cells {
		if c.live {
			out[string(j.appendKey(kb[:0], w))] = c.v
		}
	}
	return out
}

// recover replays the log into j.cells and leaves j.f positioned for
// appends.
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
	if len(data) > 64*minRecordLen {
		// Presize for replay by the frame count, as if every frame were an
		// SA key's: compaction keeps a log past DefaultCompactAt under twice
		// its snapshot, so a large lane's frames are at most twice its keys.
		j.cells = make(map[uint64]*Cell, len(data)/(minRecordLen+spiKeyLen))
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
		// million-record replay allocates one Cell per key life, nothing per
		// record. No save writes an empty key; such a frame changes nothing.
		if w := wordOf(j, kb); w != 0 && !del {
			j.raise(j.slot(w), v, int64(n))
		} else if c := j.cells[w]; c != nil && del {
			j.drop(c, int64(n))
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

// minRecordLen is the size of a frame with an empty key (which a save
// refuses, so every real frame is larger).
const minRecordLen = 2 + 8 + 4

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

// appendFrame appends word w's record frame to buf, the key spelled from
// its word in place (mu held).
func (j *Journal) appendFrame(buf []byte, w, v uint64, del bool) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, 0) // the length field, set below
	buf = binary.BigEndian.AppendUint64(buf, v)
	buf = j.appendKey(buf, w)
	lf := uint16(len(buf) - start - 2 - 8)
	if del {
		lf |= journalTombstone
	}
	binary.BigEndian.PutUint16(buf[start:], lf)
	return binary.BigEndian.AppendUint32(buf, journalCRC(buf[start:]))
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
		if w := wordOf(j, key); w != 0 {
			j.raise(j.slot(w), v, 0) // the compaction below sizes the snapshot
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

// stageLocked encodes one record for c, the Cell holding its key's state,
// into the staging buffer and numbers it, updating the Cell, the sizes and
// the tail ring (mu held, journal usable). commitStagedLocked makes it
// durable.
func (j *Journal) stageLocked(c *Cell, v uint64, del bool) uint64 {
	start := len(j.stage)
	j.stage = j.appendFrame(j.stage, c.w, v, del)
	n := int64(len(j.stage) - start)
	j.counts.Appends++
	j.logSize += n
	if del {
		j.drop(c, n) // a tombstone frame is as long as its key's save frame
	} else {
		j.raise(c, v, n)
	}
	mySeq := j.appendSeq
	j.appendSeq++
	if j.follower != nil {
		// The record waits in the ring for the follower's ack; Recv gates
		// delivery on syncedSeq, so the follower never sees it early.
		j.tail.push(tailEntry{w: c.w, v: v, del: del})
	}
	return mySeq
}

// slot returns word w's table Cell, or a new one outside it (mu held).
func (j *Journal) slot(w uint64) *Cell {
	if c := j.cells[w]; c != nil {
		return c
	}
	return &Cell{j: j, w: w}
}

// raise records v as c's value (mu held): a live key keeps the larger one,
// and a key that is not live starts a life, its n-byte frame in the snapshot.
func (j *Journal) raise(c *Cell, v uint64, n int64) {
	if c.live {
		c.v = max(c.v, v)
		return
	}
	if !c.claimed {
		j.cells[c.w] = c
	}
	c.v, c.live = v, true
	j.counts.Keys++
	j.snapSize += n
}

// drop ends live Cell c's life and its n-byte frame's place in the snapshot
// (mu held).
func (j *Journal) drop(c *Cell, n int64) {
	c.v, c.live = 0, false
	j.counts.Keys--
	j.snapSize -= n
	if !c.claimed {
		delete(j.cells, c.w)
	}
}

// commitStagedLocked drives the commit pipeline for the staged record
// numbered mySeq; it is entered with mu held and releases it before
// returning. Whoever finds no commit in flight becomes the committer for
// the whole staged batch: it swaps the staging buffer for the spare slab
// and, outside the mutex, performs one write and (with sync enabled) one
// fsync for the group, then advances the commit watermark over it — later
// savers stage the next batch concurrently with the I/O. The rest wait on
// the watermark. With a follower attached the save is only acknowledged
// once the follower's Ack covers the record too — replication joins fsync
// as part of the durability contract.
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
			t := j.follower
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
	// Compact when the log is both past the threshold and at least twice
	// what the snapshot would occupy — the second condition keeps a journal
	// whose key population alone exceeds compactAt from re-compacting on
	// every save. Compaction subsumes this batch's write AND fsync: the
	// snapshot is taken from the Cells, which already reflect every staged
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
	if syncStep {
		j.counts.Syncs++ // issued, whatever it returned
	}
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
		// get. The snapshot is taken from the Cells, which already reflect the
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
// value staged so far is durable — the snapshot is taken from the Cells,
// which already reflect every staged record, so the staging buffer is discarded
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

	buf := make([]byte, 0, journalHeaderLen+j.counts.Keys*32)
	buf = appendHeader(buf)
	for w, c := range j.cells {
		if c.live {
			buf = j.appendFrame(buf, w, c.v, false)
		}
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

// Cell is one key of a Journal, seen through the Store interface, and the
// slot that holds the key's state: its value, and whether it is live (saved
// since its last tombstone) and claimed. A Cell is in its lane's table while
// it is live or claimed, so a tombstone on an unclaimed key or the release
// of a key that is not live takes it out, and rekey churn never grows the
// table. An operation on a Cell outside the table acts on the table's Cell
// for its word, if there is one; a save or a claim puts this Cell in if
// not. So a Cell kept past Delete and ReleaseCell still reads and writes the
// key's one state. A bad key's Cell has word 0 and fails with ErrBadKey.
type Cell struct {
	j             *Journal
	w, v          uint64 // the key's word, and its value while live
	live, claimed bool
}

// cell returns key's Cell: the table's, or a new one outside the table.
func (j *Journal) cell(key string) *Cell {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slot(wordOf(j, key))
}

// lock takes the lane mutex and returns the Cell holding c's key state: c
// itself unless c is out of the table and the table has one for its word.
func (c *Cell) lock() (*Cell, error) {
	if c.w == 0 {
		return nil, ErrBadKey
	}
	c.j.mu.Lock()
	if !c.live && !c.claimed {
		if s := c.j.cells[c.w]; s != nil {
			return s, nil
		}
	}
	return c, nil
}

// claim takes (on) the exclusive in-process claim on the cell's key and
// returns the key's table Cell, or drops it if held; see Lanes.ClaimCell.
func (c *Cell) claim(on bool) (*Cell, error) {
	s, err := c.lock()
	if err != nil {
		return nil, err
	}
	j := c.j
	defer j.mu.Unlock()
	switch {
	case !on:
		if s.claimed && !s.live {
			delete(j.cells, s.w)
		}
	case j.closed:
		return nil, ErrClosed
	case s.claimed:
		return nil, fmt.Errorf("%w: %q", ErrCellClaimed, j.appendKey(nil, s.w))
	case !s.live:
		j.cells[s.w] = s
	}
	s.claimed = on
	return s, nil
}

// stage is the first half of a save or tombstone: it stages the record on
// the key's Cell and returns its commit sequence number, staged false when
// nothing was: an error, or a tombstone for a key that is not live.
func (c *Cell) stage(v uint64, del bool) (seq uint64, staged bool, err error) {
	s, err := c.lock()
	if err != nil {
		return 0, false, err
	}
	if err = c.j.usableLocked(); err == nil && (!del || s.live) {
		seq, staged = c.j.stageLocked(s, v, del), true
	}
	c.j.mu.Unlock()
	return seq, staged, err
}

// append stages a save or tombstone (Save, Lanes.Delete), then waits until
// it is durable (or, without sync, written).
func (c *Cell) append(v uint64, del bool) error {
	seq, staged, err := c.stage(v, del)
	if !staged {
		return err
	}
	return c.j.waitDurable(seq)
}

var _ Store = (*Cell)(nil)
var _ Stager = (*Cell)(nil)

// Save durably appends v to the journal under the cell's key: Stage, then
// WaitDurable.
func (c *Cell) Save(v uint64) error { return c.append(v, false) }

// Stage appends v's record to the lane's staging buffer and returns its
// commit sequence number without waiting for the record to be durable; the
// save is complete only once WaitDurable(seq) returns nil. A caller holding
// several cells stages them all and then waits for each, so one write and
// one fsync per lane cover the lot (SaverPool's rounds).
func (c *Cell) Stage(v uint64) (seq uint64, err error) {
	seq, _, err = c.stage(v, false)
	return seq, err
}

// WaitDurable blocks until the record Stage numbered seq is durable in the
// cell's lane, or returns the error that keeps it from being so.
func (c *Cell) WaitDurable(seq uint64) error { return c.j.waitDurable(seq) }

// Fetch returns the cell's recovered or last saved value.
func (c *Cell) Fetch() (uint64, bool, error) {
	s, err := c.lock()
	if err != nil {
		return 0, false, err
	}
	defer c.j.mu.Unlock()
	if c.j.closed {
		return 0, false, ErrClosed
	}
	return s.v, s.live, nil
}

// Lane returns the index of the commit lane this cell persists into.
// SaverPool routes handles by this value, so all of one lane's background
// saves drain on one worker and group-commit into that lane's fsyncs.
func (c *Cell) Lane() int { return c.j.lane }

// Poisoned returns the sticky I/O error that quarantined the cell's lane, or
// nil; every save into the lane fails with it until the lane is repaired.
func (c *Cell) Poisoned() error { return c.j.stats().Poisoned }

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
