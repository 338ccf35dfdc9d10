package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark was built on a shared two-core sandbox where the same code
// runs at speeds that differ by half from one second to the next (stolen time,
// a busy sibling thread) and where an fsync takes 0.2 ms in one minute and
// 1.5 ms in the next. No statistic of a wall clock or a CPU clock survives
// that, so every timed end-to-end metric except setup_s is a ratio to one of
// the two units below, measured beside the work it is compared with. Both go
// through the standard library and the operating system only, so that no
// change to the repository can move them. README.md has the measurements.

// hostRef is the CPU unit: one AES-128 encryption of four blocks plus one
// HMAC-SHA256 over 64 B, the primitives a 64 B packet costs at the least.
type hostRef struct {
	blk cipher.Block
	mac hash.Hash
	buf [payloadLen]byte
	sum []byte
}

// refOps is how many operations one reference phase runs, about 5 ms.
const refOps = 16384

func newHostRef() *hostRef {
	var key [32]byte
	blk, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err) // the key length is a constant
	}
	return &hostRef{blk: blk, mac: hmac.New(sha256.New, key[:]), sum: make([]byte, 0, sha256.Size)}
}

// phase runs refOps operations on the calling goroutine and returns what they
// took on the clock and on the thread's CPU clock. The CPU time is the
// thread's alone: savers still finishing SAVEs on other threads are not part
// of the unit.
func (r *hostRef) phase() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, c0 := time.Now(), threadCPUTime()
	for i := 0; i < refOps; i++ {
		for b := 0; b < payloadLen; b += aes.BlockSize {
			r.blk.Encrypt(r.buf[b:b+aes.BlockSize], r.buf[b:b+aes.BlockSize])
		}
		r.mac.Reset()
		r.mac.Write(r.buf[:])
		r.sum = r.mac.Sum(r.sum[:0])
		r.buf[0] ^= r.sum[0]
	}
	return time.Since(t0), threadCPUTime() - c0
}

// cpuTime is the CPU time, user plus system, of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the CPU time of the calling OS thread, read from the
// scheduler's own clock: getrusage(RUSAGE_THREAD) is only as fine as the tick.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// diskRef is the disk unit: one journal-record-sized append to a file beside
// the lane directories, made durable with fsync. While a recovery step runs,
// a lone writer makes such appends back to back, and the step's duration is
// reported as the number of them that fit into it.
type diskRef struct {
	f *os.File
}

func newDiskRef(dir string) (*diskRef, error) {
	f, err := os.Create(filepath.Join(dir, "disk-ref"))
	if err != nil {
		return nil, err
	}
	return &diskRef{f: f}, nil
}

// opCost is what one set-up, wake or cold start cost.
type opCost struct {
	wall    time.Duration
	appends float64       // reference appends that fit into wall
	cpu     time.Duration // of the whole process, less the reference writer's
}

// during runs step with the reference writer beside it.
func (r *diskRef) during(step func() error) (opCost, error) {
	var stop atomic.Bool
	var n int
	var writerWall, writerCPU time.Duration
	done := make(chan struct{})
	start, cpu0 := time.Now(), cpuTime()
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c0 := threadCPUTime()
		var rec [25]byte
		for !stop.Load() {
			r.f.Write(rec[:]) //nolint:errcheck // timing only; a short write only shortens the fsync
			r.f.Sync()        //nolint:errcheck
			n++
		}
		writerWall, writerCPU = time.Since(start), threadCPUTime()-c0
	}()
	err := step()
	wall, cpu := time.Since(start), cpuTime()-cpu0
	stop.Store(true)
	<-done
	progress.Add(1)
	return opCost{wall: wall, appends: float64(n) * float64(wall) / float64(writerWall), cpu: cpu - writerCPU}, err
}

func (r *diskRef) close() {
	r.f.Close()
	os.Remove(r.f.Name())
}
