// VPN tunnel demo: a bidirectional ESP tunnel between two gateways with
// IKE-negotiated keys, dead-peer detection, and a prolonged reset (§6 of
// the paper): the surviving gateway holds the SAs after declaring its peer
// dead, and the rebooted peer revives the association with one secured
// "I am up" message — no renegotiation. A replayed old packet cannot fake
// the resurrection.
//
// The demo runs on the deterministic simulation engine, so its timeline is
// reproducible.
//
// Run:
//
//	go run ./examples/vpn_tunnel
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"antireplay"
)

const k = 25

// gateway bundles one side's protocol state.
type gateway struct {
	name string
	out  *antireplay.OutboundSA // traffic to the peer
	in   *antireplay.InboundSA  // traffic from the peer
	send *antireplay.Link[[]byte]
}

func main() {
	engine := antireplay.NewEngine(7)
	now := func() time.Duration { return engine.Now() }

	// Negotiate keys the real way: one IKE handshake, two child SAs.
	res, err := antireplay.EstablishSA(
		antireplay.IKEConfig{PSK: []byte("tunnel-psk"), Rand: rand.New(rand.NewSource(1)), ID: "gw-east"},
		antireplay.IKEConfig{PSK: []byte("tunnel-psk"), Rand: rand.New(rand.NewSource(2)), ID: "gw-west"},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IKE: established child SAs %#x (east->west) and %#x (west->east)\n",
		res.Keys.SPIInitToResp, res.Keys.SPIRespToInit)

	east := &gateway{name: "east"}
	west := &gateway{name: "west"}

	// Each direction: a resilient sender at the source, a resilient
	// receiver at the sink, persisted in (simulated) stable storage.
	newSender := func() *antireplay.Sender {
		var st antireplay.MemStore
		s, err := antireplay.NewSender(antireplay.SenderConfig{
			K: k, Store: &st, Saver: antireplay.NewSimSaver(engine, &st, 100*time.Microsecond),
		})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	newReceiver := func() *antireplay.Receiver {
		var st antireplay.MemStore
		r, err := antireplay.NewReceiver(antireplay.ReceiverConfig{
			K: k, W: 64, Store: &st, Saver: antireplay.NewSimSaver(engine, &st, 100*time.Microsecond),
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	east.out, err = antireplay.NewOutboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, newSender(), false, antireplay.Lifetime{}, now)
	if err != nil {
		log.Fatal(err)
	}
	west.in, err = antireplay.NewInboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, newReceiver(), false, antireplay.Lifetime{}, now)
	if err != nil {
		log.Fatal(err)
	}
	west.out, err = antireplay.NewOutboundSA(res.Keys.SPIRespToInit, res.Keys.RespToInit, newSender(), false, antireplay.Lifetime{}, now)
	if err != nil {
		log.Fatal(err)
	}
	east.in, err = antireplay.NewInboundSA(res.Keys.SPIRespToInit, res.Keys.RespToInit, newReceiver(), false, antireplay.Lifetime{}, now)
	if err != nil {
		log.Fatal(err)
	}

	// The adversary wiretaps west's outbound traffic for a later replay.
	var recordedWestPacket []byte

	// Dead-peer detection at east, probing through the tunnel.
	var monitor *antireplay.DPDMonitor
	east.send = antireplay.NewLink(engine, antireplay.LinkConfig{Delay: 5 * time.Millisecond}, func(wire []byte) {
		payload, v, err := west.in.Open(wire)
		if err != nil || !v.Delivered() {
			return // down, replay, or corrupt: west's stack drops it
		}
		if kind, seq, ok := antireplay.ParseDPDPayload(payload); ok && kind == "probe" {
			replyThroughWest(west, antireplay.AckPayload(seq))
		}
	})
	west.send = antireplay.NewLink(engine, antireplay.LinkConfig{Delay: 5 * time.Millisecond}, func(wire []byte) {
		if recordedWestPacket == nil {
			recordedWestPacket = append([]byte(nil), wire...)
		}
		payload, v, err := east.in.Open(wire)
		if err != nil || !v.Delivered() {
			return
		}
		monitor.NoteInbound()
		if kind, seq, ok := antireplay.ParseDPDPayload(payload); ok {
			switch kind {
			case "ack":
				monitor.NoteAck(seq)
			case "resync":
				fmt.Printf("t=%-6v east: secured resync from west accepted — association revived\n",
					engine.Now().Round(time.Millisecond))
			}
		}
	})

	monitor, err = antireplay.NewDPDMonitor(antireplay.DPDConfig{
		Engine:      engine,
		IdleTimeout: 10 * time.Second,
		AckTimeout:  2 * time.Second,
		MaxProbes:   3,
		HoldTime:    60 * time.Second,
		SendProbe: func(seq uint64) {
			fmt.Printf("t=%-6v east: DPD probe #%d\n", engine.Now().Round(time.Millisecond), seq)
			sendThroughEast(east, antireplay.ProbePayload(seq))
		},
		OnState: func(s antireplay.PeerState) {
			fmt.Printf("t=%-6v east: peer state -> %v\n", engine.Now().Round(time.Millisecond), s)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: application traffic for 5 seconds.
	for i := 1; i <= 5; i++ {
		i := i
		engine.At(time.Duration(i)*time.Second, func() {
			sendThroughEast(east, []byte(fmt.Sprintf("east-data-%d", i)))
			replyThroughWest(west, []byte(fmt.Sprintf("west-data-%d", i)))
		})
	}

	// Phase 2: west suffers a prolonged reset at t=6s.
	engine.At(6*time.Second, func() {
		fmt.Printf("t=%-6v west: POWER FAILURE (prolonged reset)\n", engine.Now().Round(time.Millisecond))
		west.in.Receiver().Reset()
		west.out.Sender().Reset()
	})

	// The adversary tries to fake west's resurrection at t=25s by replaying
	// a recorded packet. Its sequence number is below east's window edge,
	// so east discards it and the peer stays dead.
	engine.At(25*time.Second, func() {
		fmt.Printf("t=%-6v adversary: replaying an old west packet to fake a resurrection\n",
			engine.Now().Round(time.Millisecond))
		west.send.Inject(recordedWestPacket)
	})
	engine.At(26*time.Second, func() {
		fmt.Printf("t=%-6v east: peer still %v (replay did not revive it)\n",
			engine.Now().Round(time.Millisecond), monitor.State())
	})

	// Phase 3: west reboots at t=30s — within the hold time — and sends
	// the secured "I am up" with its leaped sequence number.
	engine.At(30*time.Second, func() {
		fmt.Printf("t=%-6v west: rebooting (FETCH + leap 2K + SAVE)\n", engine.Now().Round(time.Millisecond))
		west.in.Receiver().Wake()
		west.out.Sender().Wake()
	})
	engine.At(30*time.Second+time.Millisecond, func() {
		replyThroughWest(west, antireplay.ResyncPayload())
	})

	// Phase 4: traffic resumes.
	engine.At(35*time.Second, func() {
		sendThroughEast(east, []byte("east-data-after"))
		replyThroughWest(west, []byte("west-data-after"))
	})

	engine.RunUntil(40 * time.Second)

	fmt.Printf("\nfinal: east sees peer %v\n", monitor.State())
	_, _, _, replays := east.in.Counters()
	fmt.Printf("east inbound SA: %d replay discards (the faked resurrection among them)\n", replays)
	if monitor.State() != antireplay.PeerAlive {
		log.Fatal("tunnel did not recover")
	}
	fmt.Println("tunnel recovered from a prolonged reset without renegotiating the SA.")
}

func sendThroughEast(east *gateway, payload []byte) {
	wire, err := east.out.Seal(payload)
	if err != nil {
		return // sender down or waking
	}
	east.send.Send(wire)
}

func replyThroughWest(west *gateway, payload []byte) {
	wire, err := west.out.Seal(payload)
	if err != nil {
		return
	}
	west.send.Send(wire)
}
