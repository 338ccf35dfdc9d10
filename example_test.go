package antireplay_test

// Godoc examples for the public API. Each one's // Output: block is the
// paper's claim it prints, checked by go test: a reset never reuses a
// number, a replay is never delivered twice, and a reset sacrifices at most
// 2K numbers.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"antireplay"
)

// exampleKeys is the key material of the examples' SAs that IKE does not
// key. SAs that share keys never share a nonce: the SPI is in it.
func exampleKeys() antireplay.KeyMaterial {
	return antireplay.KeyMaterial{
		AuthKey: make([]byte, antireplay.AuthKeySize),
		EncKey:  make([]byte, antireplay.EncKeySize),
	}
}

// exampleIKE is one party of an IKE handshake; its seed fixes the SPIs.
func exampleIKE(seed int64, id string) antireplay.IKEConfig {
	return antireplay.IKEConfig{PSK: []byte("psk"), Rand: rand.New(rand.NewSource(seed)), ID: id}
}

// exampleTunnel is tunnel i's address pair and the selector that routes it.
func exampleTunnel(i int) (src, dst netip.Addr, sel antireplay.Selector) {
	src, dst = netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), netip.AddrFrom4([4]byte{10, 1, 0, byte(i)})
	return src, dst, antireplay.Selector{Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32)}
}

// exampleGateway builds a gateway on cfg over a one-lane journal in dir and
// returns it with the function that closes it, its journal and cfg.Pool.
func exampleGateway(dir, name string, cfg antireplay.GatewayConfig) (*antireplay.Gateway, func()) {
	journal, err := antireplay.NewLanes(filepath.Join(dir, name+".journal"), antireplay.LanesCount(1))
	if err != nil {
		panic(err)
	}
	cfg.Journal, cfg.K = journal, 25
	gw, err := antireplay.NewGateway(cfg)
	if err != nil {
		panic(err)
	}
	return gw, func() {
		if cfg.Pool != nil {
			cfg.Pool.Close()
		}
		gw.Close()
		journal.Close()
	}
}

// exampleSettle waits until pool has no SAVE in flight. A completed SAVE
// starts no other, so once the traffic stops every SAVE it started is on
// the medium (and on a sync follower) from here on.
func exampleSettle(pool *antireplay.SaverPool) {
	for pool.QueueDepth() > 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// exampleSend seals payload on tx and opens the wire on rx, each through
// the strict durable horizon: ErrSaveLag and VerdictHorizon say a counter
// is 2K past its last completed SAVE, and both clear when that save lands.
func exampleSend(tx, rx *antireplay.Gateway, src, dst netip.Addr, payload []byte) ([]byte, antireplay.Verdict) {
	wire, err := tx.Seal(src, dst, payload)
	for ; errors.Is(err, antireplay.ErrSaveLag); wire, err = tx.Seal(src, dst, payload) {
		time.Sleep(20 * time.Microsecond)
	}
	if err != nil {
		panic(err)
	}
	_, v, err := rx.Open(wire)
	for ; v == antireplay.VerdictHorizon; _, v, err = rx.Open(wire) {
		time.Sleep(20 * time.Microsecond)
	}
	if err != nil {
		panic(err)
	}
	return wire, v
}

// The minimal protocol loop: number, admit, crash, recover, reject replays.
func Example() {
	var txStore, rxStore antireplay.MemStore
	snd, _ := antireplay.NewSender(antireplay.SenderConfig{K: 25, Store: &txStore})
	rcv, _ := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 25, W: 64, Store: &rxStore})

	var history []uint64
	for i := 0; i < 100; i++ {
		seq, _ := snd.Next()
		history = append(history, seq)
		rcv.Admit(seq)
	}

	rcv.Reset() // crash
	rcv.Wake()  // FETCH + leap 2K + SAVE (synchronous with the default saver)

	replayed := 0
	for _, seq := range history {
		if rcv.Admit(seq).Delivered() {
			replayed++
		}
	}
	fmt.Printf("replays delivered after recovery: %d\n", replayed)
	// Output: replays delivered after recovery: 0
}

// Sizing the SAVE interval from the paper's §4 rule.
func ExampleSizeK() {
	// The paper's worked example: a 100µs disk write, 4µs per message.
	k := antireplay.SizeK(100*time.Microsecond, 4*time.Microsecond)
	fmt.Println(k)
	// Output: 25
}

// The wake-up leap that covers a torn in-flight save.
func ExampleLeap() {
	fmt.Println(antireplay.Leap(25, antireplay.DefaultLeapFactor))
	// Output: 50
}

// ESP end to end with IKE-negotiated keys.
func ExampleEstablishSA() {
	res, err := antireplay.EstablishSA(exampleIKE(1, "east"), exampleIKE(2, "west"))
	if err != nil {
		fmt.Println(err)
		return
	}

	var txStore, rxStore antireplay.MemStore
	snd, _ := antireplay.NewSender(antireplay.SenderConfig{K: 25, Store: &txStore})
	rcv, _ := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 25, W: 64, Store: &rxStore})
	out, _ := antireplay.NewOutboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, snd, false, antireplay.Lifetime{}, nil)
	in, _ := antireplay.NewInboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, rcv, true, antireplay.Lifetime{}, nil)

	wire, _ := out.Seal([]byte("through the tunnel"))
	payload, verdict, _ := in.Open(wire)
	fmt.Printf("%s (%v)\n", payload, verdict)

	_, verdict, _ = in.Open(wire) // replay
	fmt.Printf("replay verdict: %v\n", verdict)
	// Output:
	// through the tunnel (new)
	// replay verdict: duplicate
}

// The paper's attack: an adversary records authenticated ESP traffic and
// replays all of it into a receiver that has just been reset. The §2
// baseline delivers the whole history again; the §4 SAVE/FETCH receiver
// delivers none of it.
func ExampleNewInboundSA() {
	const packets = 500
	replayed := func(baseline bool) (dups int) {
		var txStore, rxStore antireplay.MemStore // MemStore plays the disk: it survives the reset
		snd, _ := antireplay.NewSender(antireplay.SenderConfig{K: 25, Store: &txStore, Baseline: baseline})
		rcv, _ := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 25, W: 64, Store: &rxStore, Baseline: baseline})
		out, _ := antireplay.NewOutboundSA(0xBEEF, exampleKeys(), snd, false, antireplay.Lifetime{}, nil)
		in, _ := antireplay.NewInboundSA(0xBEEF, exampleKeys(), rcv, false, antireplay.Lifetime{}, nil)

		var recorded [][]byte // the adversary's wiretap
		for i := range packets {
			wire, _ := out.Seal(fmt.Appendf(nil, "payment-order-%04d", i))
			recorded = append(recorded, wire)
			in.Open(wire)
		}
		rcv.Reset()
		rcv.Wake() // synchronous with the default saver
		for _, wire := range recorded {
			if _, v, _ := in.Open(wire); v.Delivered() {
				dups++
			}
		}
		return dups
	}
	fmt.Println("recording ESP traffic, then resetting the receiver and replaying everything:")
	fmt.Println()
	fmt.Printf("  §2 baseline:   %4d of %d replayed packets delivered AGAIN (unbounded damage)\n", replayed(true), packets)
	fmt.Printf("  §4 SAVE/FETCH: %4d of %d replayed packets delivered again\n", replayed(false), packets)
	fmt.Println()
	fmt.Println("the resilient receiver rejected every replay — the paper's theorem.")
	// Output:
	// recording ESP traffic, then resetting the receiver and replaying everything:
	//
	//   §2 baseline:    500 of 500 replayed packets delivered AGAIN (unbounded damage)
	//   §4 SAVE/FETCH:    0 of 500 replayed packets delivered again
	//
	// the resilient receiver rejected every replay — the paper's theorem.
}

// Dead-peer detection and the paper's §6 prolonged reset, on the
// deterministic simulation engine: east probes a silent west, declares it
// dead and holds the SAs; the rebooted west revives the association with
// one secured "I am up" message, with no renegotiation. A replayed old
// packet cannot fake the resurrection.
func ExampleNewDPDMonitor() {
	engine := antireplay.NewEngine(7)
	at := func() time.Duration { return engine.Now().Round(time.Millisecond) }
	res, err := antireplay.EstablishSA(exampleIKE(1, "gw-east"), exampleIKE(2, "gw-west"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("IKE: established child SAs %#x (east->west) and %#x (west->east)\n",
		res.Keys.SPIInitToResp, res.Keys.SPIRespToInit)

	// One direction: a sender at the source and a receiver at the sink,
	// each saved to memory by a simulated 100µs disk.
	direction := func(spi uint32, keys antireplay.KeyMaterial) (*antireplay.OutboundSA, *antireplay.InboundSA) {
		var txStore, rxStore antireplay.MemStore
		snd, _ := antireplay.NewSender(antireplay.SenderConfig{
			K: 25, Store: &txStore, Saver: antireplay.NewSimSaver(engine, &txStore, 100*time.Microsecond),
		})
		rcv, _ := antireplay.NewReceiver(antireplay.ReceiverConfig{
			K: 25, W: 64, Store: &rxStore, Saver: antireplay.NewSimSaver(engine, &rxStore, 100*time.Microsecond),
		})
		out, _ := antireplay.NewOutboundSA(spi, keys, snd, false, antireplay.Lifetime{}, engine.Now)
		in, _ := antireplay.NewInboundSA(spi, keys, rcv, false, antireplay.Lifetime{}, engine.Now)
		return out, in
	}
	eastOut, westIn := direction(res.Keys.SPIInitToResp, res.Keys.InitToResp)
	westOut, eastIn := direction(res.Keys.SPIRespToInit, res.Keys.RespToInit)

	var monitor *antireplay.DPDMonitor
	var toWest, toEast *antireplay.Link[[]byte]
	var recorded []byte // the adversary's wiretap: west's first packet
	send := func(out *antireplay.OutboundSA, link *antireplay.Link[[]byte], payload []byte) {
		if wire, err := out.Seal(payload); err == nil { // a down sender seals nothing
			link.Send(wire)
		}
	}
	toWest = antireplay.NewLink(engine, antireplay.LinkConfig{Delay: 5 * time.Millisecond}, func(wire []byte) {
		payload, v, err := westIn.Open(wire)
		if err != nil || !v.Delivered() {
			return // down, replay, or corrupt: west's stack drops it
		}
		if kind, seq, _ := antireplay.ParseDPDPayload(payload); kind == "probe" {
			send(westOut, toEast, antireplay.AckPayload(seq))
		}
	})
	toEast = antireplay.NewLink(engine, antireplay.LinkConfig{Delay: 5 * time.Millisecond}, func(wire []byte) {
		if recorded == nil {
			recorded = append([]byte(nil), wire...)
		}
		payload, v, err := eastIn.Open(wire)
		if err != nil || !v.Delivered() {
			return // down, replay, or corrupt: east's stack drops it
		}
		monitor.NoteInbound()
		switch kind, seq, _ := antireplay.ParseDPDPayload(payload); kind {
		case "ack":
			monitor.NoteAck(seq)
		case "resync":
			fmt.Printf("t=%-6v east: secured resync from west accepted — association revived\n", at())
		}
	})
	monitor, err = antireplay.NewDPDMonitor(antireplay.DPDConfig{
		Engine:      engine,
		IdleTimeout: 10 * time.Second,
		AckTimeout:  2 * time.Second,
		MaxProbes:   3,
		HoldTime:    60 * time.Second,
		SendProbe: func(seq uint64) {
			fmt.Printf("t=%-6v east: DPD probe #%d\n", at(), seq)
			send(eastOut, toWest, antireplay.ProbePayload(seq))
		},
		OnState: func(s antireplay.PeerState) { fmt.Printf("t=%-6v east: peer state -> %v\n", at(), s) },
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	for i := 1; i <= 5; i++ { // application traffic both ways
		engine.At(time.Duration(i)*time.Second, func() {
			send(eastOut, toWest, fmt.Appendf(nil, "east-data-%d", i))
			send(westOut, toEast, fmt.Appendf(nil, "west-data-%d", i))
		})
	}
	engine.At(6*time.Second, func() {
		fmt.Printf("t=%-6v west: POWER FAILURE (prolonged reset)\n", at())
		westIn.Receiver().Reset()
		westOut.Sender().Reset()
	})
	// The recorded packet's number is below east's window edge: discarded.
	engine.At(25*time.Second, func() {
		fmt.Printf("t=%-6v adversary: replaying an old west packet to fake a resurrection\n", at())
		toEast.Inject(recorded)
	})
	engine.At(26*time.Second, func() {
		fmt.Printf("t=%-6v east: peer still %v (replay did not revive it)\n", at(), monitor.State())
	})
	// West reboots within the hold time and announces its leaped number.
	engine.At(30*time.Second, func() {
		fmt.Printf("t=%-6v west: rebooting (FETCH + leap 2K + SAVE)\n", at())
		westIn.Receiver().Wake()
		westOut.Sender().Wake()
	})
	engine.At(30*time.Second+time.Millisecond, func() { send(westOut, toEast, antireplay.ResyncPayload()) })
	engine.At(35*time.Second, func() {
		send(eastOut, toWest, []byte("east-data-after"))
		send(westOut, toEast, []byte("west-data-after"))
	})
	engine.RunUntil(40 * time.Second)

	fmt.Printf("\nfinal: east sees peer %v\n", monitor.State())
	_, _, _, replays := eastIn.Counters()
	fmt.Printf("east inbound SA: %d replay discards (the faked resurrection among them)\n", replays)
	if monitor.State() == antireplay.PeerAlive {
		fmt.Println("tunnel recovered from a prolonged reset without renegotiating the SA.")
	}
	// Output:
	// IKE: established child SAs 0x23ff1d0f (east->west) and 0x29ec300c (west->east)
	// t=6s     west: POWER FAILURE (prolonged reset)
	// t=15.005s east: peer state -> probing
	// t=15.005s east: DPD probe #1
	// t=17.005s east: DPD probe #2
	// t=19.005s east: DPD probe #3
	// t=21.005s east: peer state -> dead
	// t=25s    adversary: replaying an old west packet to fake a resurrection
	// t=26s    east: peer still dead (replay did not revive it)
	// t=30s    west: rebooting (FETCH + leap 2K + SAVE)
	// t=30.006s east: peer state -> alive
	// t=30.006s east: secured resync from west accepted — association revived
	//
	// final: east sees peer alive
	// east inbound SA: 1 replay discards (the faked resurrection among them)
	// tunnel recovered from a prolonged reset without renegotiating the SA.
}

// The gateway datapath, a packet at a time and without allocating: the SPD
// routes each payload to its SA and SealAppend builds the wire into a reused
// buffer; the SAD routes each wire by its SPI and OpenAppend decrypts into
// another. A replayed wire authenticates and is refused by the window.
func ExampleGateway_SealAppend() {
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	gw, closeGW := exampleGateway(dir, "gw", antireplay.GatewayConfig{})
	defer closeGW()

	src, dst, sel := exampleTunnel(1)
	if _, err := gw.AddOutbound(0x1001, exampleKeys(), sel); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := gw.AddInbound(0x1001, exampleKeys()); err != nil {
		fmt.Println(err)
		return
	}

	var err error
	wire := make([]byte, 0, 2048)  // reused across packets
	plain := make([]byte, 0, 2048) // reused across packets
	for _, msg := range []string{"one", "two", "three"} {
		if wire, err = gw.SealAppend(wire[:0], src, dst, []byte(msg)); err != nil {
			fmt.Println(err)
			return
		}
		var verdict antireplay.Verdict
		if plain, verdict, err = gw.OpenAppend(plain[:0], wire); err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s (%v)\n", plain, verdict)
	}
	// wire still holds the last packet: open it again, as a replayer would.
	plain, verdict, err := gw.OpenAppend(plain[:0], wire)
	fmt.Printf("replay: %d bytes, %v, %v\n", len(plain), verdict, err)
	// Output:
	// one (new)
	// two (new)
	// three (new)
	// replay: 0 bytes, duplicate, <nil>
}

// The zero-allocation datapath: SealAppend builds the wire bytes into a
// reused buffer and OpenAppend decrypts into another — the SA's AES-GCM
// state is built once and shared, so a steady-state packet costs no
// allocation at all.
func ExampleOutboundSA_SealAppend() {
	var txStore, rxStore antireplay.MemStore
	snd, _ := antireplay.NewSender(antireplay.SenderConfig{K: 25, Store: &txStore})
	tx, _ := antireplay.NewOutboundSA(0x77, exampleKeys(), snd, true, antireplay.Lifetime{}, nil)
	rcv, _ := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 25, Store: &rxStore})
	rx, _ := antireplay.NewInboundSA(0x77, exampleKeys(), rcv, true, antireplay.Lifetime{}, nil)

	wireBuf := make([]byte, 0, 2048)  // reused across packets
	plainBuf := make([]byte, 0, 2048) // reused across packets
	for _, msg := range []string{"first", "second"} {
		wire, err := tx.SealAppend(wireBuf[:0], []byte(msg))
		if err != nil {
			fmt.Println(err)
			return
		}
		out, verdict, err := rx.OpenAppend(plainBuf[:0], wire)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s (%v)\n", out, verdict.Delivered())
		wireBuf, plainBuf = wire[:0], out[:0]
	}
	// Output:
	// first (true)
	// second (true)
}

// A VPN concentrator: one SA pair per branch office, every counter saved
// through one journal and one saver pool, so concurrent SAVEs group-commit
// under shared fsyncs. After a reset, the paper's recovery is a FETCH +
// leap + SAVE per SA from that one local journal: one fsync for the lot and
// nothing on the wire, where IKE would renegotiate every SA (4 messages and
// 4 X25519 operations each).
func ExampleGateway_WakeAll() {
	const pairs, packets = 32, 100
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	pool := antireplay.NewSaverPool(1)
	gw, closeGW := exampleGateway(dir, "gateway", antireplay.GatewayConfig{Pool: pool})
	defer closeGW()

	fmt.Printf("gateway with %d SA pairs, one per branch office\n", pairs)
	fmt.Printf("persistence: 1 journal + 1 saver pool for all %d counters\n\n", 2*pairs)
	for i := range pairs {
		_, _, sel := exampleTunnel(i)
		gw.AddOutbound(uint32(0x1000+i), exampleKeys(), sel)
		gw.AddInbound(uint32(0x1000+i), exampleKeys())
	}
	for i := range pairs {
		src, dst, _ := exampleTunnel(i)
		for range packets {
			exampleSend(gw, gw, src, dst, []byte("branch traffic"))
		}
	}

	exampleSettle(pool) // so the fsyncs counted below are the wake's alone
	fmt.Println("gateway resets...")
	gw.ResetAll() // every volatile counter and window is lost; the journal survives
	syncs := gw.Journal().Syncs()
	if err := gw.WakeAll(); err != nil {
		fmt.Println(err)
		return
	}
	// The wake stages every SA's leaped record in the one lane, then commits
	// them together.
	fmt.Printf("  SAVE/FETCH recovery: 0 network messages, 0 DH operations, %d fsync for %d SAs\n",
		gw.Journal().Syncs()-syncs, 2*pairs)
	// Output:
	// gateway with 32 SA pairs, one per branch office
	// persistence: 1 journal + 1 saver pool for all 64 counters
	//
	// gateway resets...
	//   SAVE/FETCH recovery: 0 network messages, 0 DH operations, 1 fsync for 64 SAs
}

// The outbound half of a make-before-break rekey: the successor SA takes
// over the SPD entry atomically and the old generation refuses new seals
// while its in-flight packets drain.
func ExampleGateway_RekeyOutbound() {
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	gw, closeGW := exampleGateway(dir, "gw", antireplay.GatewayConfig{})
	defer closeGW()

	src, dst, sel := exampleTunnel(1)
	old, _ := gw.AddOutbound(0x100, exampleKeys(), sel)

	// In production the successor's keys come from RekeyChildSA (the
	// CREATE_CHILD_SA-style exchange); the cutover itself is one call.
	successor, err := gw.RekeyOutbound(0x100, 0x200, exampleKeys())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("generation %d replaces SPI %#x\n", successor.Generation(), successor.PrevSPI())

	wire, _ := gw.Seal(src, dst, []byte("payload")) // routed to the successor
	spi, _ := antireplay.ParseSPI(wire)
	fmt.Printf("traffic now flows on SPI %#x\n", spi)

	_, err = old.Seal([]byte("stale"))
	fmt.Printf("old generation refuses new seals: %v\n", errors.Is(err, antireplay.ErrDraining))
	// Output:
	// generation 1 replaces SPI 0x100
	// traffic now flows on SPI 0x200
	// old generation refuses new seals: true
}

// The whole rollover, driven by the orchestrator: traffic trips the soft
// lifetime, Poll runs the CREATE_CHILD_SA-style exchange and installs the
// successor inbound SAs on both gateways before either cuts over, a packet
// in flight on the old SPI still delivers during the drain, a crash inside
// the new generation recovers by SAVE/FETCH, and retirement tombstones the
// old generation's journal cells, so its recorded traffic finds no counter
// to resurrect.
func ExampleRekeyOrchestrator() {
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	cfg := antireplay.GatewayConfig{Lifetime: antireplay.Lifetime{SoftBytes: 4096}} // rekey after ~4 KiB a direction
	east, closeEast := exampleGateway(dir, "east", cfg)
	defer closeEast()
	west, closeWest := exampleGateway(dir, "west", cfg)
	defer closeWest()

	res, err := antireplay.EstablishSA(exampleIKE(1, "east"), exampleIKE(2, "west"))
	if err != nil {
		fmt.Println(err)
		return
	}
	k := res.Keys
	src, dst, sel := exampleTunnel(1)
	east.AddOutbound(k.SPIInitToResp, k.InitToResp, sel)
	east.AddInbound(k.SPIRespToInit, k.RespToInit)
	west.AddInbound(k.SPIInitToResp, k.InitToResp)
	west.AddOutbound(k.SPIRespToInit, k.RespToInit, antireplay.Selector{Src: sel.Dst, Dst: sel.Src})

	orch, err := antireplay.NewRekeyOrchestrator(antireplay.RekeyConfig{
		A: east, B: west,
		IKEInit: exampleIKE(3, "east"), IKEResp: exampleIKE(4, "west"),
		Grace: 10 * time.Millisecond,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	tun, err := orch.Track(k.SPIInitToResp, k.SPIRespToInit)
	if err != nil {
		fmt.Println(err)
		return
	}
	ab, _ := tun.SPIs()
	fmt.Printf("generation %d: A->B SPI %#x\n", tun.Generation(), ab)

	var history [][]byte // the adversary's wiretap
	payload := make([]byte, 256)
	outA, _ := east.Outbound(ab)
	for outA.State() == antireplay.LifetimeOK {
		wire, _ := exampleSend(east, west, src, dst, payload)
		history = append(history, wire)
	}
	fmt.Printf("soft lifetime reached after %d packets\n", len(history))

	inflight, _ := east.Seal(src, dst, []byte("in flight across the rekey"))
	history = append(history, inflight)
	if err := orch.Poll(); err != nil { // sees the soft state and rolls the tunnel over
		fmt.Println(err)
		return
	}
	newAB, _ := tun.SPIs()
	fmt.Printf("generation %d: A->B SPI %#x (fresh keys, fresh counters; old generation draining)\n",
		tun.Generation(), newAB)
	if _, v, _ := west.Open(inflight); v.Delivered() {
		fmt.Println("in-flight old-SPI packet delivered during the drain window")
	}

	west.ResetAll()
	if err := west.WakeAll(); err != nil {
		fmt.Println(err)
		return
	}
	for range 2 * 25 { // the reset's cost: at most 2K fresh packets
		exampleSend(east, west, src, dst, payload)
	}
	if _, v := exampleSend(east, west, src, dst, []byte("after the crash")); v.Delivered() {
		fmt.Println("crashed and recovered inside the new generation")
	}

	time.Sleep(15 * time.Millisecond) // past Grace: the next Poll retires generation 0
	if err := orch.Poll(); err != nil {
		fmt.Println(err)
		return
	}
	if _, ok, _ := west.Journal().Cell(antireplay.InboundKey(ab)).Fetch(); !ok {
		fmt.Println("old generation retired; journal cells tombstoned")
	}
	replays := 0
	for _, wire := range history {
		if _, v, _ := west.Open(wire); v.Delivered() {
			replays++
		}
	}
	fmt.Printf("replayed %d recorded packets after retirement: %d accepted\n", len(history), replays)
	st := orch.Stats()
	fmt.Printf("orchestrator: %d soft trigger, %d rollover, %d retired\n", st.SoftTriggers, st.Rollovers, st.Retired)
	// Output:
	// generation 0: A->B SPI 0x23ff1d0f
	// soft lifetime reached after 15 packets
	// generation 1: A->B SPI 0x7ffa8cca (fresh keys, fresh counters; old generation draining)
	// in-flight old-SPI packet delivered during the drain window
	// crashed and recovered inside the new generation
	// old generation retired; journal cells tombstoned
	// replayed 16 recorded packets after retirement: 0 accepted
	// orchestrator: 1 soft trigger, 1 rollover, 1 retired
}

// A two-node cluster under a crash: the standby replicates the primary's
// journal (as its sync follower) and mirrors the SA population as a warm
// down-state image, and promotion is the paper's wake-up against the
// replica. The deposed journal is fenced and the epoch durably bumped; each
// tunnel's peer loses at most 2K packets, and a replay of everything it
// ever sent delivers nothing.
func ExampleNewStandby() {
	const tunnels, packets = 4, 300
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	peer, closePeer := exampleGateway(dir, "peer", antireplay.GatewayConfig{})
	defer closePeer()
	pool := antireplay.NewSaverPool(1)
	primary, closePrimary := exampleGateway(dir, "node1", antireplay.GatewayConfig{Pool: pool})
	defer closePrimary()
	for i := range tunnels {
		_, _, sel := exampleTunnel(i)
		peer.AddOutbound(uint32(0x100+i), exampleKeys(), sel)
		primary.AddInbound(uint32(0x100+i), exampleKeys())
	}
	fmt.Printf("cluster up: %d tunnels, primary on node1, standby on node2\n", tunnels)

	follower, err := antireplay.NewLanes(filepath.Join(dir, "node2.journal"), antireplay.LanesCount(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer follower.Close()
	standby, err := antireplay.NewStandby(antireplay.StandbyConfig{
		Source:  primary.Journal(),
		Journal: follower,
		K:       25,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer standby.Stop()
	if err := standby.Start(); err != nil {
		fmt.Println(err)
		return
	}
	if err := standby.Mirror(primary.Snapshot()); err != nil {
		fmt.Println(err)
		return
	}

	var history [][]byte // the adversary's wiretap
	delivered := 0
	for range packets {
		for i := range tunnels {
			src, dst, _ := exampleTunnel(i)
			wire, v := exampleSend(peer, primary, src, dst, []byte("payload"))
			history = append(history, wire)
			if v.Delivered() {
				delivered++
			}
		}
	}
	exampleSettle(pool)
	st := standby.Stats()
	fmt.Printf("phase 1: %d packets delivered; replication lag %d, err=%v\n", delivered, st.LagRecords, st.Err)

	primary.ResetAll() // the crash: volatile counters lost
	fmt.Println("node1 CRASHED (volatile state lost)")
	promoted, epoch, err := standby.Takeover()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("node2 promoted at epoch %d: source fenced, stream drained, image woken\n", epoch)
	if err := primary.Journal().Cell(antireplay.InboundKey(0x100)).Save(1 << 40); errors.Is(err, antireplay.ErrFenced) {
		fmt.Println("deposed node1 journal write: rejected (fenced)")
	}

	// Each tunnel's first packets fall inside the wake's leap and are
	// sacrificed; delivery resumes within 2K.
	bounded := true
	for i := range tunnels {
		src, dst, _ := exampleTunnel(i)
		resumed := false
		for n := 0; n <= 2*25 && !resumed; n++ {
			wire, v := exampleSend(peer, promoted, src, dst, []byte("post-failover"))
			history = append(history, wire)
			resumed = v.Delivered()
		}
		bounded = bounded && resumed
	}
	fmt.Printf("phase 2: traffic resumed on node2, at most 2K = 50 packets sacrificed a tunnel: %v\n", bounded)

	replays := 0
	for _, wire := range history {
		if _, v, _ := promoted.Open(wire); v.Delivered() {
			replays++
		}
	}
	fmt.Printf("replayed the recorded history at node2: %d re-accepted (MUST be 0)\n", replays)
	fmt.Println("failover complete: bounded sacrifice, zero replays, deposed writer fenced")
	// Output:
	// cluster up: 4 tunnels, primary on node1, standby on node2
	// phase 1: 1200 packets delivered; replication lag 0, err=<nil>
	// node1 CRASHED (volatile state lost)
	// node2 promoted at epoch 1: source fenced, stream drained, image woken
	// deposed node1 journal write: rejected (fenced)
	// phase 2: traffic resumed on node2, at most 2K = 50 packets sacrificed a tunnel: true
	// replayed the recorded history at node2: 0 re-accepted (MUST be 0)
	// failover complete: bounded sacrifice, zero replays, deposed writer fenced
}
