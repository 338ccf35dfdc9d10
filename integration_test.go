package antireplay_test

// Chaos soak: the full stack — IKE-keyed SA pairs both ways, ESP, impaired
// simulated links, torn-save persistence, an adversary replaying recorded
// ciphertext, and repeated resets of both hosts — driven deterministically
// for half a minute of virtual time. The safety invariant of the paper must
// hold throughout: no payload is ever delivered twice.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"antireplay"
)

func chaosIKE(seed int64, id string) antireplay.IKEConfig {
	return antireplay.IKEConfig{
		PSK:  []byte("chaos-psk"),
		Rand: rand.New(rand.NewSource(seed)),
		ID:   id,
	}
}

// chaosHost is one host of the soak, built as ExampleNewDPDMonitor builds
// its hosts: an outbound SA toward the peer and an inbound SA from it, each
// saved to memory by a simulated disk, but over strict-horizon endpoints.
type chaosHost struct {
	out  *antireplay.OutboundSA
	in   *antireplay.InboundSA
	link *antireplay.Link[[]byte] // toward the peer

	sent [][]byte // the adversary's wiretap: every wire sent, lost or not
}

func newChaosHost(t *testing.T, engine *antireplay.Engine, saveDelay time.Duration,
	outSPI uint32, outKeys antireplay.KeyMaterial, inSPI uint32, inKeys antireplay.KeyMaterial) *chaosHost {
	t.Helper()
	const k, w = 25, 128
	now := func() time.Duration { return engine.Now() }
	var txStore, rxStore antireplay.MemStore
	snd, err := antireplay.NewSender(antireplay.SenderConfig{
		K: k, Store: &txStore, Saver: antireplay.NewSimSaver(engine, &txStore, saveDelay), StrictHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := antireplay.NewReceiver(antireplay.ReceiverConfig{
		K: k, W: w, Store: &rxStore, Saver: antireplay.NewSimSaver(engine, &rxStore, saveDelay), StrictHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &chaosHost{}
	if h.out, err = antireplay.NewOutboundSA(outSPI, outKeys, snd, false, antireplay.Lifetime{}, now); err != nil {
		t.Fatal(err)
	}
	if h.in, err = antireplay.NewInboundSA(inSPI, inKeys, rcv, false, antireplay.Lifetime{}, now); err != nil {
		t.Fatal(err)
	}
	return h
}

// send seals payload toward the peer; a host that is down or waking drops it.
func (h *chaosHost) send(payload []byte) {
	if wire, err := h.out.Seal(payload); err == nil {
		h.sent = append(h.sent, wire)
		h.link.Send(wire)
	}
}

// receive opens wire and counts a delivered data payload; the §6 "I am up"
// announcements are control traffic and are not counted.
func (h *chaosHost) receive(wire []byte, counts map[string]int) {
	payload, v, err := h.in.Open(wire)
	if err != nil || !v.Delivered() {
		return
	}
	if _, _, ok := antireplay.ParseDPDPayload(payload); !ok {
		counts[string(payload)]++
	}
}

// reset crashes the host: both halves lose their volatile state.
func (h *chaosHost) reset() {
	h.out.Sender().Reset()
	h.in.Receiver().Reset()
}

// wake recovers both halves (FETCH + leap + SAVE) and, once the sender's
// post-wake SAVE has landed, announces the resurrection twice: the peer's
// strict horizon may drop the first copy while it saves.
func (h *chaosHost) wake(engine *antireplay.Engine, saveDelay time.Duration) {
	h.in.Receiver().Wake()
	h.out.Sender().Wake()
	engine.After(2*saveDelay, func() {
		if h.out.Sender().State() != antireplay.StateUp {
			return
		}
		h.send(antireplay.ResyncPayload())
		h.send(antireplay.ResyncPayload())
	})
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosRun(t, seed) })
	}
}

func chaosRun(t *testing.T, seed int64) {
	engine := antireplay.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed * 1009))

	const (
		sendInterval = 200 * time.Microsecond
		saveDelay    = time.Millisecond // spans 5 sends << K
		horizon      = 30 * time.Second
	)

	res, err := antireplay.EstablishSA(chaosIKE(seed, "a"), chaosIKE(seed+1, "b"))
	if err != nil {
		t.Fatal(err)
	}
	keys := res.Keys
	a := newChaosHost(t, engine, saveDelay, keys.SPIInitToResp, keys.InitToResp, keys.SPIRespToInit, keys.RespToInit)
	b := newChaosHost(t, engine, saveDelay, keys.SPIRespToInit, keys.RespToInit, keys.SPIInitToResp, keys.InitToResp)

	// Ground truth: payload -> delivery count.
	counts := map[string]int{}

	// Impaired links both ways.
	linkCfg := antireplay.LinkConfig{
		Delay:        500 * time.Microsecond,
		Jitter:       200 * time.Microsecond,
		LossProb:     0.02,
		DupProb:      0.02,
		ReorderProb:  0.1,
		ReorderDelay: 2 * time.Millisecond,
	}
	a.link = antireplay.NewLink(engine, linkCfg, func(wire []byte) { b.receive(wire, counts) })
	b.link = antireplay.NewLink(engine, linkCfg, func(wire []byte) { a.receive(wire, counts) })

	// Application traffic: both directions, unique payloads.
	var aSeq, bSeq int
	var tick func()
	tick = func() {
		if engine.Now() > horizon {
			return
		}
		a.send([]byte(fmt.Sprintf("a-%06d", aSeq)))
		aSeq++
		b.send([]byte(fmt.Sprintf("b-%06d", bSeq)))
		bSeq++
		engine.After(sendInterval, tick)
	}
	engine.After(sendInterval, tick)

	// Chaos: every ~2s of virtual time, reset a random host; wake it after
	// a random outage.
	var scheduleChaos func()
	scheduleChaos = func() {
		at := engine.Now() + time.Duration(1+rng.Intn(2000))*time.Millisecond
		if at > horizon {
			return
		}
		engine.At(at, func() {
			victim := a
			if rng.Intn(2) == 0 {
				victim = b
			}
			victim.reset()
			outage := time.Duration(1+rng.Intn(20)) * time.Millisecond
			engine.After(outage, func() { victim.wake(engine, saveDelay) })
			scheduleChaos()
		})
	}
	scheduleChaos()

	// Adversary: every ~500ms, replay a burst of recorded ciphertext.
	var scheduleReplay func()
	scheduleReplay = func() {
		at := engine.Now() + time.Duration(100+rng.Intn(900))*time.Millisecond
		if at > horizon {
			return
		}
		engine.At(at, func() {
			for i := 0; i < 50; i++ {
				if len(a.sent) > 0 && rng.Intn(2) == 0 {
					a.link.Inject(a.sent[rng.Intn(len(a.sent))])
				} else if len(b.sent) > 0 {
					b.link.Inject(b.sent[rng.Intn(len(b.sent))])
				}
			}
			scheduleReplay()
		})
	}
	scheduleReplay()

	engine.RunUntil(horizon + time.Second)

	// Invariants.
	delivered := 0
	for payload, n := range counts {
		if n > 1 {
			t.Fatalf("SAFETY: payload %q delivered %d times", payload, n)
		}
		delivered += n
	}
	if delivered == 0 {
		t.Fatal("nothing delivered in the soak")
	}
	total := aSeq + bSeq
	if delivered < total/2 {
		t.Errorf("delivered only %d of %d payloads — resets should not cost this much", delivered, total)
	}
	t.Logf("seed %d: sent %d, delivered %d unique (%.1f%%), captured %d ciphertexts for replay",
		seed, total, delivered, 100*float64(delivered)/float64(total),
		len(a.sent)+len(b.sent))
}
