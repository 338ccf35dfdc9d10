package adversary

import (
	"errors"
	"math/rand"
	"net/netip"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/rekey"
	"antireplay/internal/store"
)

var (
	raceAddrA = netip.AddrFrom4([4]byte{10, 9, 0, 1})
	raceAddrB = netip.AddrFrom4([4]byte{10, 9, 0, 2})
	raceSelAB = ipsec.Selector{Src: netip.PrefixFrom(raceAddrA, 32), Dst: netip.PrefixFrom(raceAddrB, 32)}
	raceSelBA = ipsec.Selector{Src: netip.PrefixFrom(raceAddrB, 32), Dst: netip.PrefixFrom(raceAddrA, 32)}
)

func raceIKE(seed int64, id string) ike.Config {
	return ike.Config{
		PSK:  []byte("campaign-race-psk"),
		Rand: rand.New(rand.NewSource(seed)),
		ID:   id,
	}
}

func raceGateway(t *testing.T, name string) *ipsec.Gateway {
	t.Helper()
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), name+".journal"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	g, err := ipsec.NewGateway(ipsec.GatewayConfig{
		Journal: j, K: 5, W: 128, Lifetime: ipsec.Lifetime{SoftBytes: 64 << 10},
	})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// TestRaceCampaignDatapath is the -race stress test for the adversary
// layer against the live datapath: a window-edge snipe (holds, late
// releases, duplicate injections) and a rekey-cutover campaign (exchange
// suppression, post-cutover blackouts) run concurrently with
// seal/open traffic, orchestrator-driven rollovers, and receiver
// gateway resets. Two gates stack over the receiver's verify, so snipe
// releases, cutover blackouts, sealer sends, and dup injections all race
// through the same path the campaigns interfere with.
//
// Safety assertions:
//   - exactly-once: no wire delivers twice, in any interleaving of
//     holds, releases, injections, resets, and rollovers;
//   - zero replay acceptances after convergence: replaying the full
//     recorded history never re-delivers a delivered wire.
func TestRaceCampaignDatapath(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	A := raceGateway(t, "a")
	B := raceGateway(t, "b")
	res, err := ike.Establish(raceIKE(60, "a"), raceIKE(61, "b"))
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	k := res.Keys
	if _, err := A.AddOutbound(k.SPIInitToResp, k.InitToResp, raceSelAB); err != nil {
		t.Fatal(err)
	}
	if _, err := A.AddInbound(k.SPIRespToInit, k.RespToInit); err != nil {
		t.Fatal(err)
	}
	if _, err := B.AddInbound(k.SPIInitToResp, k.InitToResp); err != nil {
		t.Fatal(err)
	}
	if _, err := B.AddOutbound(k.SPIRespToInit, k.RespToInit, raceSelBA); err != nil {
		t.Fatal(err)
	}

	var (
		mu        sync.Mutex
		delivered = make(map[string]int)
		history   [][]byte
		doubles   atomic.Uint64
	)
	// verify is the bottom of the stacked path: every datagram that
	// survives both gates is opened at the receiver gateway immediately,
	// in the goroutine that sent (or released, or injected) it.
	verify := func(p []byte) {
		// Open, not OpenAppend: verify runs on every sending, releasing and
		// injecting goroutine at once, so there is no one buffer to reuse.
		if _, v, err := B.Open(p); err != nil || !v.Delivered() {
			return
		}
		mu.Lock()
		delivered[string(p)]++
		if delivered[string(p)] > 1 {
			doubles.Add(1)
		}
		mu.Unlock()
	}

	// The stacked path: sealers -> snipe gate -> cutover gate -> verify.
	// The snipe gate's injections and releases bypass its own decider but
	// cross the cutover gate's, and land on the same verify path as
	// ordinary traffic.
	cutGate := NewGate(verify)
	snipeGate := NewGate(cutGate.Send)
	snipe := NewWindowEdgeSnipe(snipeGate)
	cut := NewRekeyCut(cutGate)
	snipe.Activate()
	cut.Activate()

	ini, rsp := raceIKE(62, "a"), raceIKE(63, "b")
	o, err := rekey.New(rekey.Config{
		A: A, B: B,
		Grace:       20 * time.Millisecond,
		MaxAttempts: 8, // outlasts the six suppressed exchanges within one trigger
		OnCutover:   cut.OnCutover,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			if cut.SuppressExchange() {
				return ike.ChildKeys{}, errors.New("suppressed by rekey_cutover campaign")
			}
			r, err := ike.RekeyChild(ini, rsp, oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			return r.Keys, nil
		},
	})
	if err != nil {
		t.Fatalf("rekey.New: %v", err)
	}
	tun, err := o.Track(k.SPIInitToResp, k.SPIRespToInit)
	if err != nil {
		t.Fatalf("Track: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic: sealers seal at A, record every wire at the wiretap
	// position and push it through the gated path; verification happens
	// at the bottom of the stack. Each wire is sealed into a fresh buffer
	// (SealAppend onto nil): the history keeps every one.
	const sealers = 4
	payload := make([]byte, 256)
	for s := 0; s < sealers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, err := A.SealAppend(nil, raceAddrA, raceAddrB, payload)
				if err != nil {
					if !errors.Is(err, core.ErrSaveLag) &&
						!errors.Is(err, ipsec.ErrDraining) && !errors.Is(err, core.ErrWaking) {
						t.Errorf("SealAppend: %v", err)
						return
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				mu.Lock()
				history = append(history, w)
				mu.Unlock()
				snipeGate.Send(w)
			}
		}()
	}

	// Chaos: receiver gateway resets while campaigns and traffic run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			select {
			case <-stop:
				return
			default:
			}
			B.ResetAll()
			B.WakeAll() //nolint:errcheck // transient wake errors retried next cycle
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Orchestrator: polling trips rollovers; the campaign suppresses the
	// first exchanges and blacks out the wire after each cutover.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.Poll() //nolint:errcheck // suppressed exchanges fail by design; Poll retries
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Stand down: hostages release into the path, suppression ends.
	snipe.Deactivate()
	cut.Deactivate()

	// Convergence: receiver up, rollover machinery steady.
	if err := B.WakeAll(); err != nil {
		t.Fatalf("final WakeAll: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tun.State() != rekey.StateSteady {
		if time.Now().After(deadline) {
			t.Fatalf("tunnel never returned to steady (state %v)", tun.State())
		}
		o.Poll() //nolint:errcheck
		time.Sleep(time.Millisecond)
	}

	if n := doubles.Load(); n != 0 {
		t.Fatalf("%d wires delivered twice during the stress run", n)
	}
	if snipe.Held == 0 || snipe.Dups == 0 {
		t.Fatalf("snipe campaign idle: held %d, dups %d", snipe.Held, snipe.Dups)
	}
	if cut.Suppressed == 0 {
		t.Fatal("rekey_cutover campaign idle: no exchange suppressed")
	}
	if s := o.Stats(); s.Rollovers == 0 {
		t.Fatalf("no rollovers completed under suppression: %+v", s)
	}

	// Zero replay acceptances: the attacker's full recording, replayed
	// into the converged receiver, never re-delivers a delivered wire.
	// (A wire whose prior submissions were all discarded — dropped in a
	// blackout, sealed mid-reset — may legitimately deliver now as a
	// late first delivery.)
	mu.Lock()
	replaySet := history
	mu.Unlock()
	replays := 0
	var buf []byte
	for _, w := range replaySet {
		out, v, err := B.OpenAppend(buf[:0], w)
		buf = out
		if err != nil || !v.Delivered() {
			continue
		}
		mu.Lock()
		if delivered[string(w)] > 0 {
			replays++
		}
		delivered[string(w)]++
		mu.Unlock()
	}
	if replays != 0 {
		t.Fatalf("%d replay acceptances after convergence, want 0", replays)
	}
}
