// HA failover demo: a crash of one gateway looks like a bounded reset to
// its standby. The receiver side of a tunnel population is a two-node
// cluster: the primary's save journal replicates, record by record, into a
// standby's journal, and the standby holds a warm (down-state) image of the
// SA population. When the primary dies, Takeover performs the epoch-fenced
// promotion: the deposed journal is fenced (split-brain writes rejected),
// the epoch is durably bumped, and every adopted SA wakes with the paper's
// FETCH + leap + SAVE — against the REPLICA. The peer sees a short
// false-reject window (bounded by replication lag plus the leap, the
// failover analogue of the paper's <= 2K sacrifice) and zero replays.
//
// Run:
//
//	go run ./examples/ha_failover [-n 4] [-packets 300]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"antireplay"
)

func tunnelAddr(i int) (src, dst netip.Addr) {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
}

func keyMaterial(rng *rand.Rand) antireplay.KeyMaterial {
	k := antireplay.KeyMaterial{
		AuthKey: make([]byte, antireplay.AuthKeySize),
		EncKey:  make([]byte, antireplay.EncKeySize),
	}
	rng.Read(k.AuthKey)
	rng.Read(k.EncKey)
	return k
}

// seal retries through save-lag backpressure (bounded).
func seal(gw *antireplay.Gateway, src, dst netip.Addr, payload []byte) ([]byte, error) {
	for tries := 0; ; tries++ {
		w, err := gw.Seal(src, dst, payload)
		if err == nil {
			return w, nil
		}
		if !errors.Is(err, antireplay.ErrSaveLag) || tries > 100000 {
			return nil, err
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// open retries through horizon backpressure (the strict durable horizon
// defers delivery until the lagging replicated save lands) and reports
// whether the packet delivered.
func open(gw *antireplay.Gateway, w []byte) bool {
	for tries := 0; ; tries++ {
		_, v, err := gw.Open(w)
		if err != nil {
			return false
		}
		if v == antireplay.VerdictHorizon && tries < 100000 {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		return v.Delivered()
	}
}

func main() {
	n := flag.Int("n", 4, "number of tunnels")
	packets := flag.Int("packets", 300, "packets per tunnel before the crash")
	flag.Parse()
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "ha-failover-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	openJournal := func(name string) *antireplay.Lanes {
		j, err := antireplay.NewLanes(filepath.Join(dir, name+".journal"), antireplay.LanesCount(1))
		if err != nil {
			log.Fatal(err)
		}
		return j
	}
	jPeer, j1, j2 := openJournal("peer"), openJournal("node1"), openJournal("node2")
	defer jPeer.Close()
	defer j1.Close()
	defer j2.Close()

	const k = 25
	peer, err := antireplay.NewGateway(antireplay.GatewayConfig{Journal: jPeer, K: k})
	if err != nil {
		log.Fatal(err)
	}
	defer peer.Close()
	primary, err := antireplay.NewGateway(antireplay.GatewayConfig{Journal: j1, K: k})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < *n; i++ {
		src, dst := tunnelAddr(i)
		keys := keyMaterial(rng)
		sel := antireplay.Selector{Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32)}
		if _, err := peer.AddOutbound(uint32(0x100+i), keys, sel); err != nil {
			log.Fatal(err)
		}
		if _, err := primary.AddInbound(uint32(0x100+i), keys); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cluster up: %d tunnels, primary on node1, standby on node2\n", *n)

	// The standby: tails node1's journal (as its sync follower — the
	// primary's saves complete only once node2 holds them) and mirrors the
	// SA population as a warm, down-state image.
	standby, err := antireplay.NewStandby(antireplay.StandbyConfig{Source: j1, Journal: j2, K: k})
	if err != nil {
		log.Fatal(err)
	}
	defer standby.Stop()
	if err := standby.Start(); err != nil {
		log.Fatal(err)
	}
	if err := standby.Mirror(primary.Snapshot()); err != nil {
		log.Fatal(err)
	}

	// Steady-state traffic through the primary.
	var history [][]byte
	deliveredAt1 := 0
	for p := 0; p < *packets; p++ {
		for i := 0; i < *n; i++ {
			src, dst := tunnelAddr(i)
			w, err := seal(peer, src, dst, []byte(fmt.Sprintf("packet %d", p)))
			if err != nil {
				log.Fatal(err)
			}
			history = append(history, w)
			if open(primary, w) {
				deliveredAt1++
			}
		}
	}
	st := standby.Stats()
	fmt.Printf("phase 1: %d packets delivered; replication applied %d records (%d snapshot loads), lag %d, err=%v\n",
		deliveredAt1, st.AppliedRecords, st.SnapshotLoads, st.LagRecords, st.Err)

	// The crash: node1's volatile state (counters, windows) is gone. Its
	// journal survives — but the standby does not need it.
	primary.ResetAll()
	fmt.Println("node1 CRASHED (volatile state lost)")

	promoted, epoch, err := standby.Takeover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node2 promoted at epoch %d: source fenced, stream drained, image woken\n", epoch)

	// Split brain: whatever still runs on node1 cannot write.
	if err := j1.Cell(antireplay.InboundKey(0x100)).Save(1 << 40); errors.Is(err, antireplay.ErrFenced) {
		fmt.Println("deposed node1 journal write: rejected (fenced)")
	}

	// Traffic resumes through the promoted node. The first few packets per
	// tunnel fall inside the wake window (replicated edge + leap) and are
	// sacrificed — the failover analogue of the paper's <= 2K cost — then
	// delivery resumes.
	falseRejects, deliveredAt2 := 0, 0
	for p := 0; deliveredAt2 < *n*10; p++ {
		if p > *packets**n+10000 {
			log.Fatal("traffic never resumed after the failover")
		}
		for i := 0; i < *n; i++ {
			src, dst := tunnelAddr(i)
			w, err := seal(peer, src, dst, []byte(fmt.Sprintf("post-failover %d", p)))
			if err != nil {
				log.Fatal(err)
			}
			history = append(history, w)
			if open(promoted, w) {
				deliveredAt2++
			} else {
				falseRejects++
			}
		}
	}
	fmt.Printf("phase 2: traffic resumed on node2 after %d sacrificed packets (leap window)\n", falseRejects)

	// The adversary replays everything ever sent. The promoted node must
	// re-accept none of it: every window edge leaped past the history.
	replays := 0
	for _, w := range history {
		if _, v, _ := promoted.Open(w); v.Delivered() {
			replays++
		}
	}
	fmt.Printf("replayed %d recorded packets at node2: %d re-accepted (MUST be 0)\n", len(history), replays)
	if replays > 0 {
		log.Fatal("SAFETY VIOLATION: replay accepted across failover")
	}
	fmt.Println("failover complete: bounded sacrifice, zero replays, deposed writer fenced")
}
