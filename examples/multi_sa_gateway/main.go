// Multi-SA gateway demo: the paper's §3 motivation quantified at gateway
// scale. A VPN concentrator holds one SA pair per branch office, and every
// SA persists its counters into ONE shared save journal through ONE bounded
// saver pool — instead of the file + goroutine + private fsync stream per
// SA that a naive SAVE/FETCH deployment would cost. Concurrent SAVEs across
// branches group-commit under shared fsyncs.
//
// After a reset, the IETF remedy renegotiates every SA with IKE (4 messages
// and 4 X25519 operations each); the paper's remedy replays one local
// journal and re-SAVEs one leaped counter per SA — no network, no
// asymmetric crypto.
//
// Run:
//
//	go run ./examples/multi_sa_gateway [-n 16] [-packets 100] [-fast]
package main

import (
	"bytes"
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

func branchAddr(i int) (src, dst netip.Addr) {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
}

// sealRetries bounds the backpressure loops: the horizon clears one save
// latency after it trips, so thousands of 50µs retries only stay exhausted
// when the medium itself is failing — surface that instead of spinning.
const sealRetries = 20000

// seal pushes one packet through the gateway, backing off while the strict
// durable horizon waits for a queued background save.
func seal(gw *antireplay.Gateway, src, dst netip.Addr, payload []byte) ([]byte, error) {
	for attempt := 0; attempt < sealRetries; attempt++ {
		wire, err := gw.Seal(src, dst, payload)
		if !errors.Is(err, antireplay.ErrSaveLag) {
			return wire, err
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil, fmt.Errorf("seal: save lag never cleared after %d retries (failing medium?)", sealRetries)
}

func main() {
	n := flag.Int("n", 16, "number of SA pairs (branch offices)")
	packets := flag.Int("packets", 100, "packets per branch before the reset")
	fast := flag.Bool("fast", false, "skip the IKE handshakes (prints message and DH counts only)")
	flag.Parse()

	dir, err := os.MkdirTemp("", "multi-sa-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	journal, err := antireplay.NewLanes(filepath.Join(dir, "gateway.journal"), antireplay.LanesCount(1))
	if err != nil {
		log.Fatal(err)
	}
	defer journal.Close() // after gw.Close has drained the owned pool
	gw, err := antireplay.NewGateway(antireplay.GatewayConfig{
		Journal: journal, // the saver pool is the gateway's own, drained by gw.Close
		K:       25,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	fmt.Printf("gateway with %d SA pairs, one per branch office\n", *n)
	fmt.Printf("persistence: 1 journal + 1 saver pool (8 workers) for all %d counters\n\n", 2**n)

	keys := antireplay.KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0xA1}, antireplay.AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0xB2}, antireplay.EncKeySize),
	}
	for i := 0; i < *n; i++ {
		spi := uint32(0x1000 + i)
		src, dst := branchAddr(i)
		sel := antireplay.Selector{
			Src: netip.PrefixFrom(src, 32),
			Dst: netip.PrefixFrom(dst, 32),
		}
		if _, err := gw.AddOutbound(spi, keys, sel); err != nil {
			log.Fatal(err)
		}
		if _, err := gw.AddInbound(spi, keys); err != nil {
			log.Fatal(err)
		}
	}

	// Snapshot so the traffic numbers below exclude the registration saves.
	setupAppends, setupSyncs := journal.Appends(), journal.Syncs()

	// Traffic so the counters are non-trivial: every branch's SAVEs share
	// the journal's group-committed fsyncs. A VerdictHorizon discard is the
	// strict horizon holding delivery back while a queued save lands — the
	// retransmission (retry) then goes through.
	for i := 0; i < *n; i++ {
		src, dst := branchAddr(i)
		for p := 0; p < *packets; p++ {
			wire, err := seal(gw, src, dst, []byte("branch traffic"))
			if err != nil {
				log.Fatal(err)
			}
			delivered := false
			for attempt := 0; attempt < sealRetries; attempt++ {
				_, verdict, err := gw.Open(wire)
				if err != nil {
					log.Fatal(err)
				}
				if verdict == antireplay.VerdictHorizon {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if !verdict.Delivered() {
					log.Fatalf("fresh packet discarded: %v", verdict)
				}
				delivered = true
				break
			}
			if !delivered {
				log.Fatalf("open: horizon never cleared after %d retries (failing medium?)", sealRetries)
			}
		}
	}
	appends, syncs := journal.Appends()-setupAppends, journal.Syncs()-setupSyncs
	fmt.Printf("sealed %d packets: %d counter SAVEs appended, %d fsyncs "+
		"(a journal per SA would have cost %d fsyncs: one per save)\n\n",
		*n**packets, appends, syncs, appends)

	// The gateway resets: every volatile counter and window is lost; the
	// journal survives.
	fmt.Println("gateway resets...")
	gw.ResetAll()

	// Remedy A (paper): FETCH + leap + SAVE per SA, from the one local
	// journal.
	preSyncs := journal.Syncs()
	start := time.Now()
	if err := gw.WakeAll(); err != nil {
		log.Fatalf("wake: %v", err)
	}
	saveFetch := time.Since(start)
	fmt.Printf("  SAVE/FETCH recovery: %10v   0 network messages, 0 DH operations, %d fsyncs for %d SAs\n",
		saveFetch, journal.Syncs()-preSyncs, 2**n)

	// Remedy B (IETF): renegotiate every SA with IKE.
	if *fast {
		fmt.Printf("  IKE renegotiation:   (skipped; would be %d messages, %d X25519 operations)\n",
			4**n, 4**n)
		return
	}
	start = time.Now()
	msgs, dh := 0, 0
	for i := 0; i < *n; i++ {
		res, err := antireplay.EstablishSA(
			antireplay.IKEConfig{PSK: []byte("gw-psk"), Rand: rand.New(rand.NewSource(int64(i) + 1)), ID: "gw"},
			antireplay.IKEConfig{PSK: []byte("gw-psk"), Rand: rand.New(rand.NewSource(int64(i) + 1e6)), ID: fmt.Sprintf("branch-%d", i)},
		)
		if err != nil {
			log.Fatal(err)
		}
		msgs += res.Messages
		dh += res.DH
	}
	ike := time.Since(start)
	fmt.Printf("  IKE renegotiation:   %10v   %d network messages, %d X25519 operations\n",
		ike, msgs, dh)
	fmt.Printf("\nSAVE/FETCH is %.0fx faster and sends nothing on the wire.\n",
		float64(ike)/float64(saveFetch))
	fmt.Println("(and the IKE numbers exclude the network round trips a real WAN would add)")
}
