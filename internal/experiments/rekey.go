package experiments

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/netsim"
	"antireplay/internal/rekey"
	"antireplay/internal/testbed"
)

// RekeyConfig parameterizes the rekey-under-reset rollover experiment.
type RekeyConfig struct {
	// Seed drives all randomness (IKE nonces, loss draws, reorder shuffles).
	Seed int64
	// LossProbs is the sweep of per-message IKE loss probabilities; data
	// packets are additionally lost with half each probability.
	LossProbs []float64
	// Tunnels is the number of tunnels tracked per row.
	Tunnels int
	// PacketsPerPhase is the data traffic per tunnel before and after the
	// rollover.
	PacketsPerPhase int
	// Bed is every row's topology: K (which sizes the sacrifice flush, so
	// it must be set), window, lanes, fsync, link and hooks. Each row sets
	// its soft lifetime itself. On a UDP link the exchange rides the
	// control lane.
	Bed testbed.Config
}

const (
	// rekeyInFlight is the number of old-SPI packets left in flight across
	// each tunnel's cutover.
	rekeyInFlight = 8
	// rekeyMaxAttempts bounds IKE retries per rollover trigger.
	rekeyMaxAttempts = 64
)

// DefaultRekeyConfig sweeps IKE loss up to the acceptance point (>= 5%)
// and beyond.
func DefaultRekeyConfig() RekeyConfig {
	return RekeyConfig{
		Seed:            1,
		LossProbs:       []float64{0, 0.05, 0.25},
		Tunnels:         4,
		PacketsPerPhase: 200,
		Bed:             testbed.Config{K: 25, W: 64, Sync: true},
	}
}

// RekeyRollover demonstrates the make-before-break property end to end:
// soft lifetimes trip IKE-driven rollovers on a gateway pair while the
// receiver gateway is crashed mid-exchange (scheduled on the simulation
// clock) and both the exchange and the data path suffer seeded loss and
// reordering. Every row asserts the two safety outcomes the rollover design
// exists for, and is an error otherwise:
//
//   - in-flight old-SPI packets sealed after the receiver's recovery but
//     before the cutover all deliver during the drain window
//     (false_rejects must be 0);
//   - replaying the entire recorded history after retirement re-delivers
//     nothing (replay_accepts must be 0), and the retired generations'
//     journal cells are erased (cells_erased counts them).
//
// The "sacrificed" column is the paper's own receiver-reset cost — up to 2K
// fresh messages per reset, unrelated to the rollover — reported so the
// zero-false-reject claim is measured on top of, not instead of, the
// protocol's documented behavior. The exchanges run over ike.TestGroup: a
// larger group changes what an exchange costs, not a cell of the table.
func RekeyRollover(cfg RekeyConfig) (*Table, error) {
	t := &Table{
		ID:    "rekey",
		Title: "IKE-driven SA rollover under receiver resets (make-before-break)",
		Note: "Expect zero false_rejects and zero replay_accepts at every loss rate: " +
			"the drain window keeps old-SPI packets deliverable across the cutover and " +
			"retirement tombstones the old counters. sacrificed is the paper's own " +
			"<= 2K-per-reset recovery cost, not a rollover defect.",
		Columns: []string{"ike_loss", "rollovers", "ike_attempts", "delivered",
			"sacrificed", "inflight_ok", "false_rejects", "replay_accepts", "cells_erased"},
	}
	for _, p := range cfg.LossProbs {
		row, err := rekeyRolloverRow(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: rekey loss %.2f: %w", p, err)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// rekeyRow accumulates one row's accounting.
type rekeyRow struct {
	attempts   int
	delivered  int
	sacrificed int
	inflightOK int
	falseRej   int
}

func rekeyRolloverRow(cfg RekeyConfig, loss float64) ([]string, error) {
	bed, k := cfg.Bed, int(cfg.Bed.K)
	// Soft lifetime trips after roughly one phase of traffic.
	bed.Lifetime = ipsec.Lifetime{SoftBytes: uint64(cfg.PacketsPerPhase) * 300 / 2}
	p, err := testbed.New(bed)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	A, B := p.A.GW, p.B.GW

	e := netsim.NewEngine(cfg.Seed)
	rng := e.Rand()
	// Every party of every exchange draws a distinct seed from the engine's
	// deterministic source, so repeated rollovers negotiate distinct SPIs.
	ikeCfg := func(id string) ike.Config {
		return ike.Config{PSK: []byte("rekey-experiment"), Group: ike.TestGroup(),
			Rand: rand.New(rand.NewSource(rng.Int63())), ID: id}
	}

	var (
		row      rekeyRow
		addrFor  = make(map[uint32]int) // live A->B SPI -> tunnel index
		inflight [][]byte
	)
	addr := func(i int, side byte) netip.Addr {
		return netip.AddrFrom4([4]byte{10, side, byte(i >> 8), byte(i)})
	}
	seal := func(i int) ([]byte, error) {
		return p.Seal(addr(i, 0), addr(i, 1), make([]byte, 280))
	}
	// phase pushes packets-per-tunnel of traffic with data loss p/2 and
	// light reordering (batch shuffle), counting deliveries. B settles
	// after every batch: a SAVE the batch triggered lands before the next
	// batch can reach the strict horizon, whose discard would otherwise
	// start a SAVE of its own at a value the scheduler picked — and the
	// crash FETCHes the last of them.
	phase := func(packets int) error {
		batch := make([][]byte, 0, 8)
		flush := func() error {
			rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
			for _, w := range batch {
				_, v, err := p.Send(w)
				if err != nil {
					return err
				}
				if v.Delivered() {
					row.delivered++
				}
			}
			batch = batch[:0]
			return p.Settle()
		}
		for n := 0; n < packets; n++ {
			for i := 0; i < cfg.Tunnels; i++ {
				w, err := seal(i)
				if err != nil {
					return err
				}
				if rng.Float64() < loss/2 {
					continue // data packet lost in the network
				}
				batch = append(batch, w)
				if len(batch) == cap(batch) {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		return flush()
	}

	// Establish and track the tunnels.
	o, err := rekey.New(rekey.Config{
		A: A, B: B,
		// Each exchange attempt advances the virtual clock 2ms; the grace
		// window outlasts the worst-case retry budget, so no drained
		// generation can retire while its in-flight packets are unchecked.
		Grace:       time.Duration(rekeyMaxAttempts*cfg.Tunnels+10) * 2 * time.Millisecond,
		MaxAttempts: rekeyMaxAttempts,
		Clock:       e.Now,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			row.attempts++
			ini, err := ike.NewRekeyInitiator(ikeCfg("gw-a"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			rsp, err := ike.NewRekeyResponder(ikeCfg("gw-b"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			m1, err := ini.Request()
			if err != nil {
				return ike.ChildKeys{}, err
			}
			// Run the simulation forward between the two messages: this is
			// where the scheduled receiver crash fires, mid-exchange.
			e.RunFor(2 * time.Millisecond)
			if rng.Float64() < loss {
				return ike.ChildKeys{}, fmt.Errorf("rekey request lost")
			}
			m2, err := p.RoundTrip(m1, rsp.HandleRequest)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if rng.Float64() < loss {
				return ike.ChildKeys{}, fmt.Errorf("rekey response lost")
			}
			// This attempt will complete, so the cutover is imminent. First
			// flush the receiver's post-reset sacrifice window on this
			// tunnel (the paper's <= 2K cost), then leave InFlight packets
			// in flight on the old SPI across the cutover.
			ti := addrFor[oldAB]
			for n := 0; n < 3*k; n++ {
				w, err := seal(ti)
				if err != nil {
					return ike.ChildKeys{}, err
				}
				if _, v, err := p.Send(w); err != nil {
					return ike.ChildKeys{}, err
				} else if v.Delivered() {
					row.delivered++
				} else {
					row.sacrificed++
				}
			}
			for n := 0; n < rekeyInFlight; n++ {
				w, err := seal(ti)
				if err != nil {
					return ike.ChildKeys{}, err
				}
				inflight = append(inflight, w)
			}
			if err := ini.HandleResponse(m2); err != nil {
				return ike.ChildKeys{}, err
			}
			return ini.ChildKeys(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	tunnels := make([]*rekey.Tunnel, cfg.Tunnels)
	var oldKeys []string
	for i := range tunnels {
		res, err := ike.Establish(ikeCfg(fmt.Sprintf("init-%d", i)), ikeCfg(fmt.Sprintf("resp-%d", i)))
		if err != nil {
			return nil, err
		}
		kk := res.Keys
		if err := testbed.Install(A, B, kk.SPIInitToResp, kk.InitToResp, addr(i, 0), addr(i, 1)); err != nil {
			return nil, err
		}
		if err := testbed.Install(B, A, kk.SPIRespToInit, kk.RespToInit, addr(i, 1), addr(i, 0)); err != nil {
			return nil, err
		}
		if tunnels[i], err = o.Track(kk.SPIInitToResp, kk.SPIRespToInit); err != nil {
			return nil, err
		}
		addrFor[kk.SPIInitToResp] = i
		oldKeys = append(oldKeys,
			ipsec.OutboundKey(kk.SPIInitToResp), ipsec.InboundKey(kk.SPIRespToInit), // A's cells
			ipsec.InboundKey(kk.SPIInitToResp), ipsec.OutboundKey(kk.SPIRespToInit)) // B's cells
	}

	// Phase 1: traffic past the soft lifetime.
	if err := phase(cfg.PacketsPerPhase); err != nil {
		return nil, err
	}

	// Schedule the receiver crash to strike mid-exchange of the first
	// rollover attempt — after phase 1 settled, so every SAVE it started
	// has landed — then poll until every tunnel has rolled over.
	e.After(500*time.Microsecond, B.ResetAll)
	e.After(time.Millisecond, func() { B.WakeAll() }) //nolint:errcheck // a failed wake surfaces as traffic failures
	for polls := 0; o.Stats().Rollovers < uint64(cfg.Tunnels); polls++ {
		if polls > rekeyMaxAttempts*cfg.Tunnels {
			return nil, fmt.Errorf("rollovers did not converge: %+v", o.Stats())
		}
		o.Poll() //nolint:errcheck // lost exchanges retry on the next poll
	}
	for i, tun := range tunnels {
		ab, _ := tun.SPIs()
		addrFor[ab] = i
	}

	// The in-flight old-SPI packets must all deliver during the drain.
	for _, w := range inflight {
		_, v, err := p.Send(w)
		if err != nil {
			return nil, fmt.Errorf("in-flight old-SPI packet: %w", err)
		}
		if v.Delivered() {
			row.inflightOK++
		} else {
			row.falseRej++
		}
	}

	// Phase 2: lighter traffic on the successors (below their own soft
	// bound, so the measurement window holds exactly one rollover per
	// tunnel), then retire the drained generations by advancing the
	// virtual clock past the grace window.
	if err := phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}
	e.RunFor(time.Duration(rekeyMaxAttempts*cfg.Tunnels+20) * 2 * time.Millisecond)
	if err := o.Poll(); err != nil {
		return nil, err
	}

	// Replay the entire history: a delivery of an already-delivered wire is
	// a replay acceptance.
	if err := p.ReplayAll(); err != nil {
		return nil, err
	}

	// The retired generations' journal cells must be erased.
	erased := 0
	for n, key := range oldKeys {
		j := A.Journal()
		if n%4 >= 2 {
			j = B.Journal()
		}
		if _, ok, _ := j.Cell(key).Fetch(); !ok {
			erased++
		}
	}

	if p.Replays() > 0 || row.falseRej > 0 || erased < len(oldKeys) {
		return nil, fmt.Errorf("%d replays accepted, %d in-flight packets falsely rejected, %d/%d retired cells erased",
			p.Replays(), row.falseRej, erased, len(oldKeys))
	}
	st := o.Stats()
	return []string{
		fmt.Sprintf("%.0f%%", loss*100),
		fmt.Sprint(st.Rollovers),
		fmt.Sprint(row.attempts),
		fmt.Sprint(row.delivered),
		fmt.Sprint(row.sacrificed),
		fmt.Sprintf("%d/%d", row.inflightOK, len(inflight)),
		fmt.Sprint(row.falseRej),
		fmt.Sprint(p.Replays()),
		fmt.Sprintf("%d/%d", erased, len(oldKeys)),
	}, nil
}
