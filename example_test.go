package antireplay_test

// Godoc examples for the public API.

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
	res, err := antireplay.EstablishSA(
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: rand.New(rand.NewSource(1)), ID: "east"},
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: rand.New(rand.NewSource(2)), ID: "west"},
	)
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

// exampleGateway builds a journal-backed gateway in a temp dir; examples
// share it via defer-cleanup.
func exampleGateway(dir string) (*antireplay.Gateway, error) {
	journal, err := antireplay.NewLanes(filepath.Join(dir, "gw.journal"), antireplay.LanesCount(1))
	if err != nil {
		return nil, err
	}
	return antireplay.NewGateway(antireplay.GatewayConfig{Journal: journal, K: 25})
}

// The gateway datapath, a packet at a time and without allocating: the SPD
// routes each payload to its SA and SealAppend builds the wire into a reused
// buffer; the SAD routes each wire by its SPI and OpenAppend decrypts into
// another. A replayed wire authenticates and is refused by the window.
func ExampleGateway_SealAppend() {
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	gw, err := exampleGateway(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { gw.Close(); gw.Journal().Close() }()

	keys := antireplay.KeyMaterial{AuthKey: make([]byte, antireplay.AuthKeySize)}
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	sel := antireplay.Selector{Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32)}
	if _, err := gw.AddOutbound(0x1001, keys, sel); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := gw.AddInbound(0x1001, keys); err != nil {
		fmt.Println(err)
		return
	}

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
// reused buffer and OpenAppend decrypts into another — per-SA crypto state
// is pooled, so a steady-state packet costs no allocation at all.
func ExampleOutboundSA_SealAppend() {
	var txStore, rxStore antireplay.MemStore
	keys := antireplay.KeyMaterial{AuthKey: make([]byte, antireplay.AuthKeySize)}
	snd, _ := antireplay.NewSender(antireplay.SenderConfig{K: 25, Store: &txStore})
	tx, _ := antireplay.NewOutboundSA(0x77, keys, snd, true, antireplay.Lifetime{}, nil)
	rcv, _ := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 25, Store: &rxStore})
	rx, _ := antireplay.NewInboundSA(0x77, keys, rcv, true, antireplay.Lifetime{}, nil)

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

// The outbound half of a make-before-break rekey: the successor SA takes
// over the SPD entry atomically and the old generation refuses new seals
// while its in-flight packets drain.
func ExampleGateway_RekeyOutbound() {
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	gw, err := exampleGateway(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { gw.Close(); gw.Journal().Close() }()

	keys := antireplay.KeyMaterial{AuthKey: make([]byte, antireplay.AuthKeySize)}
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	sel := antireplay.Selector{Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32)}
	old, _ := gw.AddOutbound(0x100, keys, sel)

	// In production the successor's keys come from RekeyChildSA (the
	// CREATE_CHILD_SA-style exchange); the cutover itself is one call.
	successor, err := gw.RekeyOutbound(0x100, 0x200, keys)
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

// A two-node cluster: the standby replicates the primary's journal (as its
// sync follower), mirrors the SA population as a warm down-state image, and
// promotion is the paper's wake-up against the replica — the deposed
// journal is fenced and the epoch durably bumped.
func ExampleNewStandby() {
	dir, _ := os.MkdirTemp("", "example-*")
	defer os.RemoveAll(dir)
	primary, err := exampleGateway(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { primary.Close(); primary.Journal().Close() }()

	keys := antireplay.KeyMaterial{AuthKey: make([]byte, antireplay.AuthKeySize)}
	if _, err := primary.AddInbound(0x2001, keys); err != nil {
		fmt.Println(err)
		return
	}

	follower, err := antireplay.NewLanes(filepath.Join(dir, "standby.journal"), antireplay.LanesCount(1))
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

	primary.ResetAll() // the crash: volatile counters lost
	promoted, epoch, err := standby.Takeover()
	if err != nil {
		fmt.Println(err)
		return
	}
	_, adopted := promoted.SAD().Lookup(0x2001)
	fmt.Printf("promoted at epoch %d, SA population adopted: %v\n", epoch, adopted)
	fmt.Printf("deposed journal fenced: %v\n",
		errors.Is(primary.Journal().Fenced(), antireplay.ErrFenced))
	// Output:
	// promoted at epoch 1, SA population adopted: true
	// deposed journal fenced: true
}

// A bidirectional host pair with automatic reset recovery.
func ExampleNewPeerPair() {
	var delivered []string
	aCfg := antireplay.PeerConfig{Name: "east", K: 25}
	bCfg := antireplay.PeerConfig{Name: "west", K: 25,
		OnData: func(p []byte) { delivered = append(delivered, string(p)) }}

	a, _, err := antireplay.NewPeerPair(aCfg, bCfg,
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: rand.New(rand.NewSource(3)), ID: "east"},
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: rand.New(rand.NewSource(4)), ID: "west"},
		nil, nil)
	if err != nil {
		fmt.Println(err)
		return
	}

	_ = a.Send([]byte("before the crash"))
	a.Reset()
	if err := a.Wake(); err != nil {
		fmt.Println(err)
		return
	}
	_ = a.Send([]byte("after the crash"))

	fmt.Println(delivered[0])
	fmt.Println(delivered[len(delivered)-1])
	// Output:
	// before the crash
	// after the crash
}
