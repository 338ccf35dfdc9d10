package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"antireplay"
)

const (
	windowW    = 1024 // anti-replay window width on every inbound SA
	payloadLen = 64   // smallest size: per-packet cost dominates
	payloadSet = 1024 // distinct seeded payloads cycled through
)

// flow is one SA pair: outbound on gateway A, inbound on gateway B. The load
// goroutine that seals owns txSeq and parkedUntil; the one that opens owns
// rxSeq (the same goroutine on the direct path).
type flow struct {
	spi      uint32
	src, dst netip.Addr
	keys     antireplay.KeyMaterial
	out      *antireplay.OutboundSA
	in       *antireplay.InboundSA

	txSeq       uint64 // last sequence number SealAppend handed out
	rxSeq       uint64 // last sequence number delivered
	parkedUntil int64  // ns since epoch; 0 when not parked on ErrSaveLag
}

// endpoint is one gateway with the medium and saver pool it persists through.
type endpoint struct {
	dir   string
	lanes *antireplay.Lanes
	pool  *antireplay.SaverPool
	gw    *antireplay.Gateway
}

// open builds the endpoint over dir through the public constructors: a
// 64-lane medium with real fsync, a default-size saver pool, and a gateway
// with W=1024, ESN, and the strict horizon left on.
func (e *endpoint) open(dir string, k uint64) error {
	lanes, err := antireplay.NewLanes(dir)
	if err != nil {
		return fmt.Errorf("open lanes %s: %w", dir, err)
	}
	pool := antireplay.NewSaverPool(0)
	gw, err := antireplay.NewGateway(antireplay.GatewayConfig{
		Journal: lanes, Pool: pool, K: k, W: windowW, ESN: true,
	})
	if err != nil {
		pool.Close()
		lanes.Close() //nolint:errcheck // already failing
		return fmt.Errorf("new gateway: %w", err)
	}
	*e = endpoint{dir: dir, lanes: lanes, pool: pool, gw: gw}
	return nil
}

// close stops the endpoint in the order Gateway.Close documents: pool, then
// gateway, then medium.
func (e *endpoint) close() error {
	if e.gw == nil {
		return nil
	}
	e.pool.Close()
	e.gw.Close() //nolint:errcheck // always nil
	err := e.lanes.Close()
	e.gw, e.pool, e.lanes = nil, nil, nil
	return err
}

// pair is gateway A (outbound) and gateway B (inbound) with the flows
// between them.
type pair struct {
	a, b  endpoint
	k     uint64
	flows []flow
}

// spiSeed draws the SPIs. They are the same for every workload seed: an SPI
// decides which commit lane its SA saves to, and the lane loads of ten seeds
// differed enough to spread the wake time of ten runs over 5.8 % where one
// seed's ten runs stayed within 2.0 %.
const spiSeed = 0x5eed

// newFlows derives every flow's keys from rng, and its SPI and addresses from
// its index.
func newFlows(rng *rand.Rand, n int) []flow {
	flows := make([]flow, n)
	used := make(map[uint32]bool, n)
	spis := rand.New(rand.NewSource(spiSeed))
	for i := range flows {
		spi := spis.Uint32()
		for spi < 256 || used[spi] { // 0 is the non-ESP marker, 1-255 are reserved
			spi = spis.Uint32()
		}
		used[spi] = true
		auth := make([]byte, antireplay.AuthKeySize)
		enc := make([]byte, antireplay.EncKeySize)
		rng.Read(auth)
		rng.Read(enc)
		flows[i] = flow{
			spi:  spi,
			src:  netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			dst:  netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			keys: antireplay.KeyMaterial{AuthKey: auth, EncKey: enc},
		}
	}
	return flows
}

// setupTimes is what one set-up (or cold start) cost.
type setupTimes struct {
	open    time.Duration // media, pools and gateways
	install time.Duration // every SA added, two installer goroutines
}

// setUp opens both endpoints under dir and installs every flow's SA pair,
// outbound SAs from one goroutine and inbound SAs from another so their
// registrations share group commits.
func (p *pair) setUp(dir string) (setupTimes, error) {
	var t setupTimes
	start := time.Now()
	if err := p.a.open(filepath.Join(dir, "a"), p.k); err != nil {
		return t, err
	}
	if err := p.b.open(filepath.Join(dir, "b"), p.k); err != nil {
		return t, err
	}
	t.open = time.Since(start)

	start = time.Now()
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range p.flows {
			f := &p.flows[i]
			sel := antireplay.Selector{Src: netip.PrefixFrom(f.src, 32), Dst: netip.PrefixFrom(f.dst, 32)}
			if f.out, errA = p.a.gw.AddOutbound(f.spi, f.keys, sel); errA != nil {
				return
			}
			progress.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := range p.flows {
			f := &p.flows[i]
			if f.in, errB = p.b.gw.AddInbound(f.spi, f.keys); errB != nil {
				return
			}
			progress.Add(1)
		}
	}()
	wg.Wait()
	t.install = time.Since(start)
	if errA != nil {
		return t, fmt.Errorf("install outbound: %w", errA)
	}
	if errB != nil {
		return t, fmt.Errorf("install inbound: %w", errB)
	}
	return t, nil
}

// close stops both endpoints, keeping their directories.
func (p *pair) close() error {
	errA, errB := p.a.close(), p.b.close()
	if errA != nil {
		return errA
	}
	return errB
}

// coldStart is the process-restart equivalent, run on a closed pair: the
// media are reopened over their existing state, every SA is re-added (each
// resumes through FETCH + leap + SAVE) and both gateways are woken. It returns
// the time from the first reopen to all SAs up.
func (p *pair) coldStart() (t setupTimes, err error) {
	if t, err = p.setUp(filepath.Dir(p.a.dir)); err != nil {
		return t, err
	}
	start := time.Now()
	if err := p.a.gw.WakeAll(); err != nil {
		return t, err
	}
	if err := p.b.gw.WakeAll(); err != nil {
		return t, err
	}
	t.install += time.Since(start)
	return t, nil
}

// quiesce waits until no SA has a SAVE in flight, so the reset that follows
// finds the same durable state on every run.
func (p *pair) quiesce() {
	for i := range p.flows {
		f := &p.flows[i]
		for f.out.Sender().Committed() < f.out.Sender().LastStored() ||
			f.in.Receiver().Committed() < f.in.Receiver().LastStored() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	progress.Add(1)
}

// fsyncs is the fsync count of both media since they were opened; 0 while
// the pair is closed.
func (p *pair) fsyncs() uint64 {
	if p.a.lanes == nil || p.b.lanes == nil {
		return 0
	}
	return p.a.lanes.Syncs() + p.b.lanes.Syncs()
}

// freshDir returns an empty directory dir/name.
func freshDir(dir, name string) (string, error) {
	d := filepath.Join(dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
