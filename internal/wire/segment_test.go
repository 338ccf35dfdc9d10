package wire

import (
	"bytes"
	"net/netip"
	"testing"
)

// The two pure steps of segmentation offload, without a socket: which
// datagrams the writer hands the kernel as one message, and how the read
// loop cuts a coalesced buffer back into datagrams.

var segPeerA, segPeerB = netip.MustParseAddrPort("192.0.2.1:4500"), netip.MustParseAddrPort("192.0.2.2:4500")

// sized returns one datagram to peer per size.
func sized(peer netip.AddrPort, sizes ...int) []datagram {
	msgs := make([]datagram, len(sizes))
	for i, n := range sizes {
		msgs[i] = datagram{p: make([]byte, n), addr: peer}
	}
	return msgs
}

// times returns n copies of size.
func times(n, size int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = size
	}
	return s
}

func TestSegmentRun(t *testing.T) {
	for _, c := range []struct {
		name string
		msgs []datagram
		want int
	}{
		{"same peer and size", sized(segPeerA, 84, 84, 84), 3},
		{"alone", sized(segPeerA, 84), 1},
		{"a shorter last", sized(segPeerA, 84, 84, 40, 84), 3},
		{"a change of peer", append(sized(segPeerA, 84, 84), sized(segPeerB, 84)...), 2},
		{"a longer after a shorter", sized(segPeerA, 40, 84), 1},
		{"a longer mid-run", sized(segPeerA, 84, 84, 85), 2},
		{"the segment cap", sized(segPeerA, times(maxSegments+10, 84)...), maxSegments},
		{"the byte cap", sized(segPeerA, times(40, 2000)...), maxUDPDatagram / 2000},
		{"the byte cap on a shorter last", sized(segPeerA, append(times(32, 2000), 1508)...), 32},
		{"an oversize datagram alone", sized(segPeerA, txSlotSize+1, txSlotSize+1), 1},
		{"a slot-size run", sized(segPeerA, txSlotSize, txSlotSize), 2},
		{"an empty datagram alone", sized(segPeerA, 0, 0), 1},
		{"an empty datagram never joins", sized(segPeerA, 84, 0), 1},
	} {
		if got := segmentRun(c.msgs); got != c.want {
			t.Errorf("%s: run of %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSplitSegments(t *testing.T) {
	for _, c := range []struct {
		name     string
		len, seg int
		want     []int
	}{
		{"an exact multiple", 252, 84, []int{84, 84, 84}},
		{"a short tail", 200, 84, []int{84, 84, 32}},
		{"no cmsg", 200, 0, []int{200}},
		{"a segment size equal to the buffer", 84, 84, []int{84}},
		{"a segment size above the buffer", 50, 84, []int{50}},
		{"an empty buffer", 0, 0, []int{0}},
	} {
		p := make([]byte, c.len)
		for i := range p {
			p[i] = byte(i)
		}
		prior := datagram{p: []byte("kept"), addr: segPeerB}
		out := splitSegments([]datagram{prior}, p, c.seg, segPeerA)
		if len(out) != 1+len(c.want) || !bytes.Equal(out[0].p, prior.p) || out[0].addr != segPeerB {
			t.Errorf("%s: %d datagrams after the prior one, want %d", c.name, len(out)-1, len(c.want))
			continue
		}
		off := 0
		for i, m := range out[1:] {
			if len(m.p) != c.want[i] || !bytes.Equal(m.p, p[off:off+c.want[i]]) || m.addr != segPeerA || m.trunc {
				t.Errorf("%s: segment %d is %d bytes from %v, want %d at offset %d", c.name, i, len(m.p), m.addr, c.want[i], off)
			}
			off += c.want[i]
		}
	}
}

// A truncated receive is counted on the link it routes to, else as unrouted,
// and never queued.
func TestDeliverDropsTruncated(t *testing.T) {
	e, links := fuzzEndpoint(t)
	l := links[fuzzPeerSPI]
	e.deliver([]datagram{
		{p: []byte{0, 0, 0, 0x10, 1, 2}, addr: fuzzStranger, trunc: true},
		{p: []byte{0, 0, 0, 0x77, 1, 2}, addr: fuzzStranger, trunc: true},
		{p: []byte{0, 0, 0, 0x10, 3, 4}, addr: fuzzStranger},
	})
	if s := l.Stats(); s.RxDrops != 1 || s.RxPackets != 1 {
		t.Errorf("link stats = %+v, want one drop and one packet", s)
	}
	if n := e.Unrouted(); n != 1 {
		t.Errorf("unrouted = %d, want 1", n)
	}
	if got := drain(l.data); len(got) != 1 || !bytes.Equal(got[0], []byte{0, 0, 0, 0x10, 3, 4}) {
		t.Errorf("data lane = %x, want the untruncated datagram alone", got)
	}
}
