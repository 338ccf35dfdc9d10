//go:build !linux || !(amd64 || arm64)

package wire

import "net"

// newBatchIO: no sendmmsg or recvmmsg here, so one datagram per syscall.
func newBatchIO(conn *net.UDPConn) batchIO { return newLoopIO(conn) }
