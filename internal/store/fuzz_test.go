package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzJournalBytes builds a genuine journal file image: header plus the
// given records in the current frame format.
func fuzzJournalBytes(f *testing.F, recs map[string]uint64) []byte {
	f.Helper()
	dir, err := os.MkdirTemp("", "fuzzjournal-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.journal")
	j, err := openLane(path, LanesWithoutSync())
	if err != nil {
		f.Fatal(err)
	}
	for k, v := range recs {
		if err := j.Cell(k).Save(v); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzJournalReplay feeds arbitrary bytes to the journal recovery path,
// the frame decoder the stealth-reset story leans on hardest (a crashed
// gateway trusts whatever this parser accepts). Invariants:
//
//   - openLane never panics, whatever the file holds;
//   - a refused open leaves the file byte-identical on disk, and a header
//     with the right magic and any version but the current one — the
//     retired IEEE-CRC version 1 is seeded — is refused with ErrCorrupt;
//   - a frame parseFrame accepts re-encodes canonically to the exact
//     bytes it was decoded from (accepting a non-canonical or truncated
//     frame would let crafted corruption alias a different record);
//   - when an open succeeds, the journal is actually usable: a fresh
//     save round-trips through close/reopen, and no key recovered by the
//     first open rolls back to a smaller value — recovery is monotone.
func FuzzJournalReplay(f *testing.F) {
	f.Add(fuzzJournalBytes(f, map[string]uint64{"tx/a": 123, "rx/a": 99}))
	f.Add(fuzzJournalBytes(f, nil))
	truncated := fuzzJournalBytes(f, map[string]uint64{"tx/torn": 1 << 40})
	f.Add(truncated[:len(truncated)-3])
	flipped := fuzzJournalBytes(f, map[string]uint64{"tx/bit": 7})
	if len(flipped) > journalHeaderLen+4 {
		flipped[journalHeaderLen+4] ^= 0x40
	}
	f.Add(flipped)
	f.Add([]byte("ARJL"))
	f.Add([]byte{})
	// A version-1 file as the retired format wrote it: same frame layout,
	// IEEE checksum.
	v1 := binary.BigEndian.AppendUint16([]byte(journalMagic), 1)
	frame := append(binary.BigEndian.AppendUint64([]byte{0, 4}, 41), "tx/a"...)
	f.Add(binary.BigEndian.AppendUint32(append(append(v1, 0, 0), frame...), crc32.ChecksumIEEE(frame)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Property 1: canonical re-encode of any accepted frame.
		if key, v, del, n, ok := parseFrame(raw); ok {
			re := appendRecord(nil, string(key), v, del)
			if !bytes.Equal(re, raw[:n]) {
				t.Fatalf("accepted frame is not canonical:\n got  % x\n want % x", raw[:n], re)
			}
		}

		// Property 2: recovery accepts or rejects, but never panics and
		// never hands back a broken journal.
		path := filepath.Join(t.TempDir(), "seq.journal")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Skip()
		}
		j, err := openLane(path, LanesWithoutSync())
		otherVersion := len(raw) >= journalHeaderLen && string(raw[:4]) == journalMagic &&
			binary.BigEndian.Uint16(raw[4:6]) != journalVersion
		if otherVersion && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open of a version-%d journal = %v, want ErrCorrupt", binary.BigEndian.Uint16(raw[4:6]), err)
		}
		if err != nil {
			// Rejected: fine, as long as nothing was written.
			if onDisk, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(onDisk, raw) {
				t.Fatalf("refused open (%v) modified the file (read err %v):\n got  % x\n want % x", err, rerr, onDisk, raw)
			}
			return
		}
		j.mu.Lock()
		before := j.valuesInto(map[string]uint64{})
		j.mu.Unlock()
		if err := j.Cell("fz/probe").Save(42); err != nil {
			t.Fatalf("opened journal refuses a save: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, err := openLane(path, LanesWithoutSync())
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer j2.Close()
		j2.mu.Lock()
		after := j2.valuesInto(map[string]uint64{})
		j2.mu.Unlock()
		if after["fz/probe"] != 42 {
			t.Fatalf("saved record lost across reopen: %v", after["fz/probe"])
		}
		for k, v := range before {
			if after[k] < v {
				t.Fatalf("key %q rolled back across reopen: %d -> %d", k, v, after[k])
			}
		}
	})
}
