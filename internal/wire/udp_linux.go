//go:build amd64 || arm64

package wire

import (
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// sendmmsg(2) and recvmmsg(2) through the socket's RawConn, so that a call
// that would block parks the goroutine in the netpoller like any net.Conn
// call. Both architectures are little-endian with the 64-bit struct msghdr;
// elsewhere udp_other.go keeps the portable loop.

// rxBatch is how many messages one recvmmsg may return; each has a
// maximum-size buffer, 64 KiB of endpoint.
const rxBatch = 16

// Segmentation offload: socket options at level IPPROTO_UDP that package
// syscall predates. A message sent with a UDP_SEGMENT cmsg is a run of
// datagrams of that size; a socket with UDP_GRO set receives a run as one
// buffer, its segment size in a UDP_GRO cmsg.
const udpSegment, udpGRO = 103, 104

// ctlSpace is one header's control buffer: room for UDP_SEGMENT's uint16 out
// or UDP_GRO's int in. cmsgData is the offset of a cmsg's data.
var ctlSpace, cmsgData = syscall.CmsgSpace(4), syscall.CmsgLen(0)

// sysSendmmsg: package syscall was frozen before amd64 gained the number.
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

// mmsghdr is the kernel's struct mmsghdr.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes moved, set by the kernel
}

// mmsgVec is a vector of message headers, each wired to a one-entry iovec,
// a name buffer wide enough for either family and a control buffer, and the
// syscall over it.
type mmsgVec struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	ctl   []byte // ctlSpace bytes a header
	// call makes the syscall over the first n headers and returns how many
	// messages the kernel moved.
	call func(n int) (int, error)
}

// newMmsgVec's park is RawConn.Read or Write. The closures are built once:
// made per call, they would cost the heap three objects a syscall.
func newMmsgVec(size int, trap uintptr, park func(func(fd uintptr) bool) error) *mmsgVec {
	v := &mmsgVec{hdrs: make([]mmsghdr, size), iovs: make([]syscall.Iovec, size),
		names: make([]syscall.RawSockaddrInet6, size), ctl: make([]byte, size*ctlSpace)}
	for i := range v.hdrs {
		h := &v.hdrs[i].hdr
		h.Name, h.Iov, h.Iovlen = (*byte)(unsafe.Pointer(&v.names[i])), &v.iovs[i], 1
		h.Control = &v.ctl[i*ctlSpace]
	}
	var n, moved uintptr
	var errno syscall.Errno
	try := func(fd uintptr) bool {
		for {
			moved, _, errno = syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(&v.hdrs[0])), n, 0, 0, 0)
			if errno != syscall.EINTR {
				return errno != syscall.EAGAIN // EAGAIN: park until the socket is ready
			}
		}
	}
	v.call = func(k int) (int, error) {
		n = uintptr(k)
		if err := park(try); err != nil {
			return 0, err
		}
		if errno != 0 {
			return 0, errno
		}
		return int(moved), nil
	}
	return v
}

func (v *mmsgVec) setBuf(i int, p []byte) {
	v.iovs[i].Base = unsafe.SliceData(p)
	v.iovs[i].SetLen(len(p))
}

// groSize returns the segment size of received message i's UDP_GRO cmsg, 0
// if the kernel did not coalesce it.
func (v *mmsgVec) groSize(i int) int {
	c := (*syscall.Cmsghdr)(unsafe.Pointer(&v.ctl[i*ctlSpace])) // a stale one unless Controllen covers it
	if v.hdrs[i].hdr.Controllen < uint64(cmsgData+4) || c.Level != syscall.IPPROTO_UDP || c.Type != udpGRO {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&v.ctl[i*ctlSpace+cmsgData])))
}

// mmsgIO is batchIO over sendmmsg and recvmmsg.
type mmsgIO struct {
	inet6 bool // the socket's family
	// segment: send runs as one message each. Off for good once ListenUDP's
	// UDP_GRO or UDP_SEGMENT probe, or EIO on a segmented message, refuses.
	segment bool
	slow    loopIO // sends what putAddr cannot address
	tx, rx  *mmsgVec
	runs    []int  // datagrams in each message of the last sendmmsg
	bufs    []byte // rxBatch receive buffers of maxRecvDatagram each
	out     []datagram
	// The zone of the last scoped source address, by interface index.
	zoneIdx  uint32
	zoneName string
}

func newBatchIO(conn *net.UDPConn) batchIO {
	rc, err := conn.SyscallConn()
	if err != nil {
		return newLoopIO(conn)
	}
	m := &mmsgIO{slow: loopIO{conn: conn},
		// An IPv4 local address means an AF_INET socket; a wildcard
		// listen is dual-stack AF_INET6 and reports "::".
		inet6: conn.LocalAddr().(*net.UDPAddr).IP.To4() == nil,
		tx:    newMmsgVec(txRingSlots, sysSendmmsg, rc.Write),
		rx:    newMmsgVec(rxBatch, syscall.SYS_RECVMMSG, rc.Read),
		runs:  make([]int, txRingSlots), bufs: make([]byte, rxBatch*maxRecvDatagram)}
	for i := range rxBatch {
		m.rx.setBuf(i, m.bufs[i*maxRecvDatagram:][:maxRecvDatagram])
	}
	for i := range m.tx.hdrs {
		c := (*syscall.Cmsghdr)(unsafe.Pointer(&m.tx.ctl[i*ctlSpace]))
		c.Level, c.Type = syscall.IPPROTO_UDP, udpSegment
		c.SetLen(syscall.CmsgLen(2))
	}
	rc.Control(func(fd uintptr) { //nolint:errcheck // a closed socket fails its first call
		_, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		m.segment = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil && err == nil
	})
	return m
}

func (m *mmsgIO) send(msgs []datagram) (int, error) {
	n, first, err := m.sendRuns(msgs, m.segment)
	if err != nil && first > 1 {
		// A refused segmented message: its datagrams go again one message
		// each, so that a verdict stays one datagram's. EIO is the path
		// saying it cannot segment at all.
		m.segment = err != syscall.EIO
		n, _, err = m.sendRuns(msgs[:first], false)
	}
	return n, err
}

// sendRuns is one sendmmsg over a prefix of msgs, one segmentRun a message if
// segment is set, else one datagram. It returns the datagrams the kernel took
// and how many the first message held.
func (m *mmsgIO) sendRuns(msgs []datagram, segment bool) (n, first int, err error) {
	v, h := m.tx, 0
	for msgs = msgs[:min(len(msgs), len(v.iovs))]; n < len(msgs); h++ {
		nameLen, ok := m.putAddr(&v.names[h], msgs[n].addr)
		if !ok {
			break
		}
		k := 1
		if segment {
			k = segmentRun(msgs[n:])
		}
		hdr := &v.hdrs[h].hdr
		hdr.Namelen, hdr.Iov, hdr.Iovlen = nameLen, &v.iovs[n], uint64(k)
		hdr.SetControllen(0)
		if k > 1 {
			*(*uint16)(unsafe.Pointer(&v.ctl[h*ctlSpace+cmsgData])) = uint16(len(msgs[n].p))
			hdr.SetControllen(ctlSpace)
		}
		for i := range k {
			v.setBuf(n+i, msgs[n+i].p)
		}
		m.runs[h], n = k, n+k
	}
	if h == 0 {
		// A scoped address, or one of the other family: the net package
		// resolves the zone, or names the error.
		n, err = m.slow.send(msgs)
		return n, 1, err
	}
	moved, err := v.call(h)
	n = 0
	for _, k := range m.runs[:moved] {
		n += k
	}
	return n, m.runs[0], err
}

func (m *mmsgIO) recv() ([]datagram, error) {
	for i := range m.rx.hdrs {
		// The kernel wrote the last sender's name and control lengths.
		m.rx.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		m.rx.hdrs[i].hdr.SetControllen(ctlSpace)
	}
	got, err := m.rx.call(rxBatch)
	m.out = m.out[:0]
	for i := range got {
		h := &m.rx.hdrs[i]
		p, from := m.bufs[i*maxRecvDatagram:][:h.n], m.addrOf(&m.rx.names[i])
		if h.hdr.Flags&syscall.MSG_TRUNC != 0 {
			// Only a coalesced run outgrows the buffer; deliver counts it lost.
			m.out = append(m.out, datagram{p: p, addr: from, trunc: true})
			continue
		}
		m.out = splitSegments(m.out, p, m.rx.groSize(i), from)
	}
	return m.out, err
}

// swap16 converts a port between host and network byte order.
func swap16(v uint16) uint16 { return v<<8 | v>>8 }

// putAddr writes to as a sockaddr of the socket's family and returns its
// length; false means the fast path cannot address it.
func (m *mmsgIO) putAddr(sa *syscall.RawSockaddrInet6, to netip.AddrPort) (uint32, bool) {
	a := to.Addr().Unmap()
	if m.inet6 {
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: swap16(to.Port()), Addr: a.As16()}
		return syscall.SizeofSockaddrInet6, a.IsValid() && a.Zone() == ""
	}
	if !a.Is4() {
		return 0, false
	}
	sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
	*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: swap16(to.Port()), Addr: a.As4()}
	return syscall.SizeofSockaddrInet4, true
}

// addrOf reads a source address the way ReadFromUDPAddrPort reports it.
func (m *mmsgIO) addrOf(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	if sa.Family == syscall.AF_INET {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), swap16(sa4.Port))
	}
	a := netip.AddrFrom16(sa.Addr)
	if idx := sa.Scope_id; idx != 0 {
		if idx != m.zoneIdx {
			m.zoneIdx, m.zoneName = idx, strconv.Itoa(int(idx))
			if ifi, err := net.InterfaceByIndex(int(idx)); err == nil {
				m.zoneName = ifi.Name
			}
		}
		a = a.WithZone(m.zoneName)
	}
	return netip.AddrPortFrom(a, swap16(sa.Port))
}
