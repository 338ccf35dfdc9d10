// Rekey rollover demo: the paper keeps an SA alive across resets precisely
// because the SA's expensive attributes (keys, algorithms) outlive the
// volatile counters — but SAs still age out by policy, so a production
// gateway must roll them over routinely. This example drives the rekey
// orchestrator through one full make-before-break cycle on a journal-backed
// gateway pair:
//
//  1. traffic trips the outbound SA's soft lifetime;
//  2. Poll runs the CREATE_CHILD_SA-style exchange (transcript-bound to the
//     old SPIs) and installs the successor inbound SAs on both gateways —
//     their counters durable in the journals — before cutting either
//     outbound side over;
//  3. a packet left in flight on the old SPI across the cutover still
//     delivers, because the old inbound SA keeps verifying while draining;
//  4. a crash strikes the successor generation and SAVE/FETCH recovers it —
//     rekey and reset resilience compose;
//  5. the grace window expires and the old generation is retired: its
//     journal cells are tombstoned, so replaying its recorded traffic —
//     or re-establishing its SPI — finds no counter to resurrect.
//
// Run:
//
//	go run ./examples/rekey_rollover
//
// The interactive companion is `go run ./cmd/resetsim -rekey -loss p`,
// one row of the rekey table: soft lifetimes trip rollovers under loss p
// on the rekey messages (p/2 on data) with the receiver gateway crashed
// mid-exchange, over loopback sockets with -transport=udp.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"antireplay"
)

func ikeCfg(seed int64, id string) antireplay.IKEConfig {
	return antireplay.IKEConfig{
		PSK:  []byte("rollover-psk"),
		Rand: rand.New(rand.NewSource(seed)),
		ID:   id,
	}
}

func gateway(dir, name string, life antireplay.Lifetime) *antireplay.Gateway {
	j, err := antireplay.NewLanes(filepath.Join(dir, name+".journal"), antireplay.LanesCount(1))
	if err != nil {
		log.Fatal(err)
	}
	gw, err := antireplay.NewGateway(antireplay.GatewayConfig{
		Journal: j, K: 25, W: 64, Lifetime: life,
	})
	if err != nil {
		log.Fatal(err)
	}
	return gw
}

func main() {
	dir, err := os.MkdirTemp("", "rekey-rollover-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Rekey after ~4KB of traffic per direction.
	life := antireplay.Lifetime{SoftBytes: 4096}
	east := gateway(dir, "east", life)
	west := gateway(dir, "west", life)
	defer func() {
		east.Close()
		west.Close()
		east.Journal().Close()
		west.Journal().Close()
	}()

	// One IKE handshake establishes the generation-0 SA pair.
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 2})
	selAB := antireplay.Selector{Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32)}
	selBA := antireplay.Selector{Src: netip.PrefixFrom(dst, 32), Dst: netip.PrefixFrom(src, 32)}
	res, err := antireplay.EstablishSA(ikeCfg(1, "east"), ikeCfg(2, "west"))
	if err != nil {
		log.Fatal(err)
	}
	k := res.Keys
	must := func(_ any, err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(east.AddOutbound(k.SPIInitToResp, k.InitToResp, selAB))
	must(east.AddInbound(k.SPIRespToInit, k.RespToInit))
	must(west.AddInbound(k.SPIInitToResp, k.InitToResp))
	must(west.AddOutbound(k.SPIRespToInit, k.RespToInit, selBA))

	// The orchestrator owns the lifecycle from here.
	orch, err := antireplay.NewRekeyOrchestrator(antireplay.RekeyConfig{
		A: east, B: west,
		IKEInit: ikeCfg(3, "east"), IKEResp: ikeCfg(4, "west"),
		Grace: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	tun, err := orch.Track(k.SPIInitToResp, k.SPIRespToInit)
	if err != nil {
		log.Fatal(err)
	}
	ab, _ := tun.SPIs()
	fmt.Printf("generation %d: A->B SPI %#x\n", tun.Generation(), ab)

	// send seals one payload east->west, retrying save-lag backpressure.
	send := func(payload []byte) []byte {
		for {
			wire, err := east.Seal(src, dst, payload)
			if err == nil {
				return wire
			}
			if !errors.Is(err, antireplay.ErrSaveLag) {
				log.Fatal(err)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	deliver := func(wire []byte) (antireplay.Verdict, error) {
		for {
			_, verdict, err := west.Open(wire)
			if verdict != antireplay.VerdictHorizon {
				return verdict, err
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	// Traffic until the soft lifetime trips, recording the history an
	// adversary would wiretap.
	var history [][]byte
	payload := make([]byte, 256)
	outA, _ := east.Outbound(ab)
	sent := 0
	for outA.State() == antireplay.LifetimeOK {
		wire := send(payload)
		history = append(history, wire)
		if _, err := deliver(wire); err != nil {
			log.Fatal(err)
		}
		sent++
	}
	fmt.Printf("soft lifetime reached after %d packets\n", sent)

	// One packet stays in flight across the cutover.
	inflight := send([]byte("in flight across the rekey"))
	history = append(history, inflight)

	// Poll sees the soft state and rolls the tunnel over.
	if err := orch.Poll(); err != nil {
		log.Fatal(err)
	}
	newAB, _ := tun.SPIs()
	fmt.Printf("generation %d: A->B SPI %#x (fresh keys, fresh counters; old generation draining)\n",
		tun.Generation(), newAB)

	// The in-flight old-SPI packet still delivers during the drain.
	if verdict, err := deliver(inflight); err != nil || !verdict.Delivered() {
		log.Fatalf("in-flight packet rejected: %v %v", verdict, err)
	}
	fmt.Println("in-flight old-SPI packet delivered during the drain window")

	// The successor keeps the reset resilience: crash west and recover.
	west.ResetAll()
	if err := west.WakeAll(); err != nil {
		log.Fatal(err)
	}
	// Flush the recovery's sacrifice window (<= 2K fresh packets — the
	// paper's documented reset cost), then confirm delivery resumes.
	for i := 0; i < 60; i++ {
		deliver(send(payload)) //nolint:errcheck // sacrifice window
	}
	if verdict, err := deliver(send([]byte("after the crash"))); err != nil || !verdict.Delivered() {
		log.Fatalf("post-recovery packet rejected: %v %v", verdict, err)
	}
	fmt.Println("crashed and recovered inside the new generation")

	// Let the grace window expire; the next Poll retires generation 0 and
	// tombstones its journal cells.
	time.Sleep(15 * time.Millisecond)
	if err := orch.Poll(); err != nil {
		log.Fatal(err)
	}
	if _, ok, _ := west.Journal().Cell(antireplay.InboundKey(ab)).Fetch(); ok {
		log.Fatal("retired generation's counter survived")
	}
	fmt.Println("old generation retired; journal cells tombstoned")

	// Replay the recorded history: everything is rejected — the old SPI is
	// gone and the new window never saw those numbers.
	replays := 0
	for _, wire := range history {
		if _, verdict, _ := west.Open(wire); verdict.Delivered() {
			replays++
		}
	}
	fmt.Printf("replayed %d recorded packets after retirement: %d accepted\n",
		len(history), replays)
	if replays > 0 {
		log.Fatal("SAFETY VIOLATION: replay accepted")
	}
	st := orch.Stats()
	fmt.Printf("orchestrator: %d soft trigger, %d rollover, %d retired\n",
		st.SoftTriggers, st.Rollovers, st.Retired)
}
