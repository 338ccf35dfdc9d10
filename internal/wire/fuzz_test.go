package wire

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

// The fuzzed endpoint's peers: a link with registered SPIs, a link without
// any (routed by address only, as testbed's are), and a stranger no link
// belongs to.
var (
	fuzzPeerSPI  = netip.MustParseAddrPort("192.0.2.1:4500")
	fuzzPeerBare = netip.MustParseAddrPort("192.0.2.2:4500")
	fuzzStranger = netip.MustParseAddrPort("192.0.2.3:4500")
	fuzzPeers    = [...]netip.AddrPort{fuzzPeerSPI, fuzzPeerBare, fuzzStranger}
)

// fuzzRecvQueue is small so that the fuzzer reaches full lanes.
const fuzzRecvQueue = 4

// fuzzBatches splits raw fuzz input into receive batches. Each record is a
// header byte, a length byte and that many payload bytes (a short final
// record takes what is left): the header's low bits pick the peer, its top
// bit ends the batch after this record.
func fuzzBatches(raw []byte) [][]datagram {
	var batches [][]datagram
	var cur []datagram
	for off := 0; off+2 <= len(raw); {
		hdr, n := raw[off], int(raw[off+1])
		off += 2
		n = min(n, len(raw)-off)
		cur = append(cur, datagram{p: raw[off : off+n], addr: fuzzPeers[int(hdr&0x7F)%len(fuzzPeers)]})
		off += n
		if hdr&0x80 != 0 {
			batches, cur = append(batches, cur), nil
		}
	}
	return append(batches, cur)
}

// fuzzEndpoint is a socketless endpoint with links to fuzzPeerSPI (SPIs 0x10
// and 0x11) and fuzzPeerBare (none), keyed by peer.
func fuzzEndpoint(t *testing.T) (*UDPEndpoint, map[netip.AddrPort]*UDPLink) {
	e := &UDPEndpoint{cfg: UDPConfig{RecvQueue: fuzzRecvQueue},
		bySPI:  make(map[uint32]*UDPLink),
		byAddr: make(map[netip.AddrPort]*UDPLink)}
	withSPIs, err := e.Link(fuzzPeerSPI, 0x10, 0x11)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := e.Link(fuzzPeerBare)
	if err != nil {
		t.Fatal(err)
	}
	return e, map[netip.AddrPort]*UDPLink{fuzzPeerSPI: withSPIs, fuzzPeerBare: bare}
}

// coalesce is what GRO makes of a batch, cut back as a receive cuts it:
// the kernel joins a run by segmentRun's rule into one buffer and reports
// its first datagram's length as the segment size.
func coalesce(batch []datagram) []datagram {
	var out []datagram
	for i := 0; i < len(batch); {
		k, buf := segmentRun(batch[i:]), []byte(nil)
		for _, m := range batch[i : i+k] {
			buf = append(buf, m.p...)
		}
		out = splitSegments(out, buf, len(batch[i].p), batch[i].addr)
		i += k
	}
	return out
}

// drain empties a lane.
func drain(ch chan []byte) (got [][]byte) {
	for len(ch) > 0 {
		got = append(got, <-ch)
	}
	return got
}

// fuzzRecord is the seed-side inverse of fuzzBatches.
func fuzzRecord(peer int, last bool, p []byte) []byte {
	hdr := byte(peer)
	if last {
		hdr |= 0x80
	}
	return append([]byte{hdr, byte(len(p))}, p...)
}

// FuzzUDPDeliver throws arbitrary datagram batches from three peers at the
// RFC 3948 demux (UDPEndpoint.deliver), with no socket. A model routes each
// input the way the encapsulation says it must go. Invariants:
//
//   - never panic;
//   - a lone 0xFF is a keepalive and is never queued;
//   - a zero-marker datagram lands only on its peer's control lane, with
//     the marker stripped;
//   - any other datagram lands on the data lane of its SPI's link, else of
//     its peer's link, else it is counted in unrouted;
//   - a full lane drops and counts what it cannot hold;
//   - every queued slice equals its input, after the input buffer has been
//     overwritten, and has cap == len;
//   - queued + RxDrops + unrouted + keepalives = inputs;
//   - each batch coalesced the kernel's way and split as a receive splits
//     it leaves a twin endpoint with the same lanes and counters.
func FuzzUDPDeliver(f *testing.F) {
	esp := func(spi byte, body string) []byte { return append([]byte{0, 0, 0, spi}, body...) }
	ctrl := func(body string) []byte { return append([]byte{0, 0, 0, 0}, body...) }
	var all []byte
	for peer := range fuzzPeers {
		all = append(all, fuzzRecord(peer, false, esp(0x10, "esp"))...)
		all = append(all, fuzzRecord(peer, false, esp(0x77, "unknown SPI"))...)
		all = append(all, fuzzRecord(peer, false, ctrl("ike"))...)
		all = append(all, fuzzRecord(peer, peer == 1, []byte{natKeepalive})...)
	}
	f.Add(all)
	f.Add(fuzzRecord(1, false, esp(0x11, "SPI beats address")))
	f.Add(fuzzRecord(0, false, []byte{0, 0, 0}))                    // short of a marker
	f.Add(fuzzRecord(2, true, ctrl("")))                            // marker alone, from nobody
	f.Add(fuzzRecord(0, false, []byte{natKeepalive, natKeepalive})) // not a keepalive
	var flood []byte
	for i := 0; i < 2*fuzzRecvQueue; i++ {
		flood = append(flood, fuzzRecord(0, i == fuzzRecvQueue, esp(0x10, "x"))...)
		flood = append(flood, fuzzRecord(1, false, ctrl("y"))...)
	}
	f.Add(flood)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		e, links := fuzzEndpoint(t)
		withSPIs := links[fuzzPeerSPI]
		// The same batches, coalesced and split again, into a twin.
		e2, links2 := fuzzEndpoint(t)

		// The model: what each lane must hold, in order, and each counter.
		want := map[chan []byte][][]byte{}
		wantDrops, wantKeepalives := map[*UDPLink]uint64{}, map[*UDPLink]uint64{}
		var wantUnrouted, inputs uint64
		route := func(m datagram) {
			p, l, ctrl := m.p, links[m.addr], false
			switch {
			case len(p) == 1 && p[0] == natKeepalive:
				if l != nil {
					wantKeepalives[l]++
					return
				}
			case len(p) >= 4 && p[0]|p[1]|p[2]|p[3] == 0:
				p, ctrl = p[4:], true
			case len(p) >= 4 && p[0] == 0 && p[1] == 0 && p[2] == 0 && (p[3] == 0x10 || p[3] == 0x11):
				l = withSPIs
			}
			if l == nil {
				wantUnrouted++
				return
			}
			ch := l.data
			if ctrl {
				ch = l.ctrl
			}
			if len(want[ch]) == fuzzRecvQueue {
				wantDrops[l]++
				return
			}
			want[ch] = append(want[ch], bytes.Clone(p))
		}

		for _, batch := range fuzzBatches(bytes.Clone(raw)) {
			for _, m := range batch {
				inputs++
				route(m)
			}
			split := coalesce(batch)
			e.deliver(batch)
			e2.deliver(split)
			for _, m := range append(batch, split...) {
				for i := range m.p {
					m.p[i] ^= 0xA5 // the read buffer is reused by the next receive
				}
			}
		}

		if u, u2 := e.Unrouted(), e2.Unrouted(); u != u2 {
			t.Fatalf("unrouted = %d, %d after coalescing", u, u2)
		}
		var queued, drops, keepalives uint64
		for peer, l := range links {
			if s, s2 := l.Stats(), links2[peer].Stats(); s != s2 {
				t.Fatalf("link %v stats = %+v, %+v after coalescing", peer, s, s2)
			}
			for _, lane := range [][2]chan []byte{{l.data, links2[peer].data}, {l.ctrl, links2[peer].ctrl}} {
				ch, got := lane[0], drain(lane[0])
				if got2 := drain(lane[1]); !reflect.DeepEqual(got, got2) {
					t.Fatalf("link %v lane holds %q, %q after coalescing", peer, got, got2)
				}
				if len(got) != len(want[ch]) {
					t.Fatalf("link %v lane holds %d datagrams, want %d", l.peer, len(got), len(want[ch]))
				}
				for i, p := range got {
					if !bytes.Equal(p, want[ch][i]) {
						t.Fatalf("link %v datagram %d = % x, want % x", l.peer, i, p, want[ch][i])
					}
					if cap(p) != len(p) {
						t.Fatalf("link %v datagram %d has cap %d > len %d", l.peer, i, cap(p), len(p))
					}
				}
				queued += uint64(len(got))
			}
			s := l.Stats()
			if s.RxDrops != wantDrops[l] || s.Keepalives != wantKeepalives[l] {
				t.Fatalf("link %v: RxDrops %d, keepalives %d; want %d, %d",
					l.peer, s.RxDrops, s.Keepalives, wantDrops[l], wantKeepalives[l])
			}
			if n := uint64(len(want[l.data]) + len(want[l.ctrl])); s.RxPackets != n {
				t.Fatalf("link %v: RxPackets %d, queued %d", l.peer, s.RxPackets, n)
			}
			drops += s.RxDrops
			keepalives += s.Keepalives
		}
		unrouted := e.Unrouted()
		if unrouted != wantUnrouted {
			t.Fatalf("unrouted = %d, want %d", unrouted, wantUnrouted)
		}
		if queued+drops+unrouted+keepalives != inputs {
			t.Fatalf("queued %d + drops %d + unrouted %d + keepalives %d != %d inputs",
				queued, drops, unrouted, keepalives, inputs)
		}
	})
}
