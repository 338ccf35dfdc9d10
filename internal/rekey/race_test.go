package rekey

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
)

// TestRekeyDuringResetStress is the -race stress test for the full
// composition: concurrent SealAppend/OpenAppend traffic across a gateway
// pair while the orchestrator rolls the tunnel over on soft-lifetime expiry
// and the receiver gateway is crashed both mid-exchange and at random.
//
// Safety assertions:
//   - exactly-once: no wire is ever delivered twice, across resets,
//     rollovers, and generation retirements (checked continuously);
//   - zero replay acceptances after convergence: replaying every recorded
//     wire delivers nothing;
//   - zero legitimate-packet rejections after convergence: once the last
//     recovery's sacrifice window is flushed, fresh traffic delivers
//     completely.
func TestRekeyDuringResetStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	init, resp := ikeCfg(50, "a"), ikeCfg(51, "b")
	var (
		B             *ipsec.Gateway
		exchangeCount atomic.Uint64
	)
	cfg := Config{
		Grace: 50 * time.Millisecond,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			// Every second exchange, the receiver gateway resets between
			// the two handshake messages (in-process: between deriving and
			// returning), modeling the reset-mid-rekey scenario.
			n := exchangeCount.Add(1)
			res, err := ike.RekeyChild(init, resp, oldAB, oldBA)
			if n%2 == 0 {
				B.ResetAll()
				B.WakeAll() //nolint:errcheck // chaos loop re-wakes; exchange result is what matters
			}
			if err != nil {
				return ike.ChildKeys{}, err
			}
			return res.Keys, nil
		},
	}
	// Small soft lifetime so traffic trips rollovers continuously.
	A, b, o, tun := pairT(t, ipsec.Lifetime{SoftBytes: 64 << 10}, cfg)
	B = b

	var (
		mu        sync.Mutex
		delivered = make(map[string]int) // wire -> delivery count
		history   [][]byte
		doubles   atomic.Uint64
	)
	// submit opens wire at B once, into buf, and enters it in the ledger.
	// Every wire is sealed into its own buffer: history keeps it.
	submit := func(buf, wire []byte) []byte {
		out, v, err := B.OpenAppend(buf[:0], wire)
		mu.Lock()
		defer mu.Unlock()
		history = append(history, wire)
		if err == nil && v.Delivered() {
			delivered[string(wire)]++
			if delivered[string(wire)] > 1 {
				doubles.Add(1)
			}
		}
		return out
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic: sealers seal and immediately open their own wires, so every
	// sealed wire is submitted exactly once.
	const sealers = 4
	payload := make([]byte, 512)
	for s := 0; s < sealers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				wire, err := A.SealAppend(nil, addrA, addrB, payload)
				if err != nil {
					if !errors.Is(err, core.ErrSaveLag) &&
						!errors.Is(err, ipsec.ErrDraining) && !errors.Is(err, core.ErrWaking) {
						t.Errorf("SealAppend: %v", err)
						return
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				buf = submit(buf, wire)
			}
		}()
	}

	// Chaos: random receiver-gateway resets on top of the mid-exchange ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
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

	// Orchestrator: soft-lifetime polling drives the rollovers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.Poll() //nolint:errcheck // exchange failures under chaos retry next poll
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Convergence: the receiver is up, the tunnel steady (drain windows
	// expire and retire), and the last recovery's sacrifice window flushed.
	if err := B.WakeAll(); err != nil {
		t.Fatalf("final WakeAll: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tun.State() != StateSteady {
		if time.Now().After(deadline) {
			t.Fatalf("tunnel never returned to steady (state %v)", tun.State())
		}
		o.Poll() //nolint:errcheck
		time.Sleep(time.Millisecond)
	}
	var buf []byte
	for i := 0; i < 16; i++ { // flush > 2K sacrificial packets
		if wire, err := A.SealAppend(nil, addrA, addrB, payload); err == nil {
			buf = submit(buf, wire)
		}
	}

	if n := doubles.Load(); n != 0 {
		t.Fatalf("%d wires delivered twice during the stress run", n)
	}
	if s := o.Stats(); s.Rollovers == 0 {
		t.Fatalf("stress run completed no rollovers: %+v", s)
	}

	// Zero replay acceptances: re-submitting the entire history never
	// delivers an already-delivered wire a second time. (A wire whose only
	// prior submissions were discarded — sealed while the receiver was
	// down, say — may legitimately deliver now if it is still inside the
	// window: that is a late first delivery, exactly what an anti-replay
	// window permits.)
	mu.Lock()
	replaySet := history
	mu.Unlock()
	replays := 0
	for _, wire := range replaySet {
		out, v, err := B.OpenAppend(buf[:0], wire)
		buf = out
		if err != nil || !v.Delivered() {
			continue
		}
		mu.Lock()
		if delivered[string(wire)] > 0 {
			replays++
		}
		delivered[string(wire)]++
		mu.Unlock()
	}
	if replays != 0 {
		t.Fatalf("%d replay acceptances after convergence, want 0", replays)
	}

	// Zero legitimate rejections after convergence: fresh packets deliver
	// completely (horizon verdicts are retried as a retransmission would
	// be).
	for i := 0; i < 16; i++ {
		wire, err := A.SealAppend(nil, addrA, addrB, payload)
		if errors.Is(err, core.ErrSaveLag) {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err != nil {
			t.Fatalf("post-convergence SealAppend: %v", err)
		}
		out, v, err := B.OpenAppend(buf[:0], wire)
		for attempt := 0; v == core.VerdictHorizon && attempt < 10000; attempt++ {
			time.Sleep(20 * time.Microsecond)
			out, v, err = B.OpenAppend(buf[:0], wire)
		}
		buf = out
		if err != nil || !v.Delivered() {
			t.Fatalf("post-convergence packet rejected: (%v, %v)", v, err)
		}
	}
}
