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

// rxBatch is how many datagrams one recvmmsg may return; each has a
// maximum-size buffer, 64 KiB of endpoint.
const rxBatch = 16

// sysSendmmsg: package syscall was frozen before amd64 gained the number.
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

// mmsghdr is the kernel's struct mmsghdr.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes moved, set by the kernel
}

// mmsgVec is a vector of message headers, each wired to a one-entry iovec
// and a name buffer wide enough for either family, and the syscall over it.
type mmsgVec struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	// call makes the syscall over the first n headers and returns how many
	// messages the kernel moved.
	call func(n int) (int, error)
}

// newMmsgVec's park is RawConn.Read or Write. The closures are built once:
// made per call, they would cost the heap three objects a syscall.
func newMmsgVec(size int, trap uintptr, park func(func(fd uintptr) bool) error) *mmsgVec {
	v := &mmsgVec{hdrs: make([]mmsghdr, size), iovs: make([]syscall.Iovec, size),
		names: make([]syscall.RawSockaddrInet6, size)}
	for i := range v.hdrs {
		h := &v.hdrs[i].hdr
		h.Name, h.Iov, h.Iovlen = (*byte)(unsafe.Pointer(&v.names[i])), &v.iovs[i], 1
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

// mmsgIO is batchIO over sendmmsg and recvmmsg.
type mmsgIO struct {
	inet6  bool   // the socket's family
	slow   loopIO // sends what putAddr cannot address
	tx, rx *mmsgVec
	bufs   []byte // rxBatch receive buffers of maxRecvDatagram each
	out    []datagram
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
		bufs:  make([]byte, rxBatch*maxRecvDatagram), out: make([]datagram, rxBatch)}
	for i := range m.out {
		m.rx.setBuf(i, m.bufs[i*maxRecvDatagram:][:maxRecvDatagram])
	}
	return m
}

func (m *mmsgIO) send(msgs []datagram) (int, error) {
	n := 0
	for ; n < len(msgs) && n < len(m.tx.hdrs); n++ {
		nameLen, ok := m.putAddr(&m.tx.names[n], msgs[n].addr)
		if !ok {
			break
		}
		m.tx.hdrs[n].hdr.Namelen = nameLen
		m.tx.setBuf(n, msgs[n].p)
	}
	if n == 0 {
		// A scoped address, or one of the other family: the net package
		// resolves the zone, or names the error.
		return m.slow.send(msgs)
	}
	return m.tx.call(n)
}

func (m *mmsgIO) recv() ([]datagram, error) {
	for i := range m.rx.hdrs {
		m.rx.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6 // the kernel wrote the last sender's
	}
	got, err := m.rx.call(rxBatch)
	for i := range m.out[:got] {
		m.out[i] = datagram{m.bufs[i*maxRecvDatagram:][:m.rx.hdrs[i].n], m.addrOf(&m.rx.names[i])}
	}
	return m.out[:got], err
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
