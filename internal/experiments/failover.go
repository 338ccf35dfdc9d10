package experiments

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/dpd"
	"antireplay/internal/ipsec"
	"antireplay/internal/netsim"
	"antireplay/internal/store"
	"antireplay/internal/testbed"
)

// FailoverConfig parameterizes the HA failover experiment.
type FailoverConfig struct {
	// Seed drives all randomness (loss draws, key material).
	Seed int64
	// LossProbs is the sweep of per-direction packet loss probabilities;
	// DPD probes and acks are lost with the same probability.
	LossProbs []float64
	// Tunnels is the number of SA pairs between the peer and the cluster.
	Tunnels int
	// PacketsPerPhase is the number of bidirectional rounds per tunnel in
	// each traffic phase (before the failover, between the failovers, and
	// after the failback).
	PacketsPerPhase int
	// Bed is every row's topology: K (the SAVE interval, which the
	// asserted bounds read, so it must be set), window, lanes per node
	// (replication runs lane to lane), fsync, link and hooks.
	Bed testbed.Config
}

// DefaultFailoverConfig sweeps loss up to 25% over laned journals.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		Seed:            1,
		LossProbs:       []float64{0, 0.05, 0.25},
		Tunnels:         4,
		PacketsPerPhase: 200,
		Bed:             testbed.Config{K: 25, Lanes: 8},
	}
}

// Failover runs the cluster subsystem end to end: a peer gateway drives
// bidirectional traffic through a primary whose journal replicates to a
// standby; the primary crashes; the standby is promoted by the epoch-fenced
// takeover (the paper's wake-up run against the replica); dead-peer
// detection on the surviving peer sees the outage and the promoted node's
// secured resurrection announcement, exactly the §6 flow. The experiment
// then fails BACK: the original node reboots, re-syncs as a standby, and is
// promoted while the interim primary is still alive — a deliberate split
// brain whose deposed writer must stall and whose journal writes must be
// rejected.
//
// Asserted invariants (the row is an error otherwise):
//
//   - zero replay acceptances: after every promotion, replaying the entire
//     recorded wire history re-delivers nothing;
//   - the false-reject window after the crash failover is bounded by the
//     per-SA wake window (replicated value + leap − edge at crash), whose
//     sum the replication-lag gauges bound: window <= lag_values +
//     tunnels*(leap + 2K);
//   - no counter regression across the double failover: every failback
//     sender resumes at or above the interim primary's last used number;
//   - the split-brained deposed primary stalls within its horizon (at most
//     leap sequence numbers per SA) and its journal rejects writes.
func Failover(cfg FailoverConfig) (*Table, error) {
	t := &Table{
		ID:    "failover",
		Title: "HA cluster: journal replication, epoch-fenced takeover, failback",
		Note: "Expect zero replay_accepts and zero regressions at every loss rate: " +
			"takeover wakes each SA from its replicated counter, so the paper's " +
			"no-reuse/no-replay theorems carry over to failover verbatim. " +
			"false_rejects is the failover analogue of the paper's <= 2K " +
			"post-reset sacrifice, bounded by window_bound = sum over SAs of " +
			"(replicated value + leap - edge at crash), itself bounded by the " +
			"reported replication lag plus the leap per SA. deposed_seals counts " +
			"how far the split-brained old primary got before stalling (< leap " +
			"per SA, fenced journal).",
		Columns: []string{"loss", "delivered", "lag_records", "lag_values",
			"false_rejects", "window_bound", "blackout", "replay_accepts",
			"deposed_seals", "epochs", "regressions"},
	}
	for _, p := range cfg.LossProbs {
		row, err := failoverRow(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: failover loss %.2f: %w", p, err)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// failoverSim is one row's topology — a testbed pair whose B side is the
// cluster — plus the simulation clock, the DPD monitor and the counts the
// audit does not keep.
type failoverSim struct {
	*testbed.Pair
	cfg  FailoverConfig
	loss float64

	e   *netsim.Engine
	mon *dpd.Monitor

	abSPI, baSPI []uint32

	nDelivered   int
	nFalseReject int
	nLost        int
}

func (s *failoverSim) addrA(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
}
func (s *failoverSim) addrB(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
}

// openB opens one wire at the current B-side primary and answers a
// delivered DPD probe on the reverse SA; reports whether it delivered.
func (s *failoverSim) openB(w []byte) (bool, error) {
	payload, v, err := s.Send(w)
	if errors.Is(err, testbed.ErrStalled) {
		return false, err
	}
	if err != nil || !v.Delivered() {
		// An error is the node down or an unknown SPI during a swap:
		// network loss, like any other refusal.
		return false, nil
	}
	if kind, probeSeq, ok := dpd.ParsePayload(payload); ok && kind == "probe" {
		return true, s.sendToA(0, dpd.AckPayload(probeSeq))
	}
	return true, nil
}

// sendToA seals a B->A payload on tunnel i at the current primary and
// delivers it to A (subject to loss), feeding the DPD monitor. A rides out
// its own durable horizon (the promoted node's leaped numbers reach it
// first) as B does, so the blackout is counted in virtual time only.
func (s *failoverSim) sendToA(i int, payload []byte) error {
	w, err := s.SealOn(s.B, s.addrB(i), s.addrA(i), payload)
	if err != nil {
		if errors.Is(err, testbed.ErrStalled) {
			return err
		}
		return nil // down, draining, fenced: the reply is simply not sent
	}
	if s.e.Rand().Float64() < s.loss {
		return nil
	}
	pl, v, err := s.OpenOn(s.A, w)
	if errors.Is(err, testbed.ErrStalled) {
		return err
	}
	if err != nil || !v.Delivered() {
		return nil
	}
	if kind, probeSeq, ok := dpd.ParsePayload(pl); ok {
		switch kind {
		case "ack":
			s.mon.NoteAck(probeSeq)
		case "resync":
			s.mon.NoteInbound()
		}
	} else {
		s.mon.NoteInbound()
	}
	return nil
}

// phase drives rounds of bidirectional traffic across every tunnel,
// counting deliveries, network losses, and false rejects (a non-lost fresh
// packet the receiver discarded). B settles after every round, so no SAVE
// is in flight when the traffic reaches a strict horizon — whose discard
// would start a SAVE at a value the scheduler picked — or when the phase
// ends in a crash or a promotion: what the standby holds, and where the
// deposed primary's horizon stands, is the scenario's.
func (s *failoverSim) phase(rounds int) error {
	const interval = 20 * time.Microsecond
	for n := 0; n < rounds; n++ {
		for i := 0; i < s.cfg.Tunnels; i++ {
			w, err := s.Seal(s.addrA(i), s.addrB(i), []byte(fmt.Sprintf("data %d/%d", n, i)))
			if err != nil {
				return err
			}
			if s.e.Rand().Float64() < s.loss {
				s.nLost++
			} else {
				ok, err := s.openB(w)
				if err != nil {
					return err
				}
				if ok {
					s.nDelivered++
				} else {
					s.nFalseReject++
				}
			}
			// The echo keeps the peer's DPD monitor fed.
			if err := s.sendToA(i, []byte("echo")); err != nil {
				return err
			}
		}
		s.e.RunFor(interval)
		if err := s.Settle(); err != nil {
			return err
		}
	}
	return nil
}

func failoverRow(cfg FailoverConfig, loss float64) ([]string, error) {
	pair, err := testbed.New(cfg.Bed)
	if err != nil {
		return nil, err
	}
	defer pair.Close()
	s := &failoverSim{Pair: pair, cfg: cfg, loss: loss, e: netsim.NewEngine(cfg.Seed)}
	rng := s.e.Rand()
	keys := func() ipsec.KeyMaterial {
		k := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
		rng.Read(k.AuthKey)
		return k
	}
	for i := 0; i < cfg.Tunnels; i++ {
		ab, ba := uint32(0xA000+i), uint32(0xB000+i)
		s.abSPI = append(s.abSPI, ab)
		s.baSPI = append(s.baSPI, ba)
		if err := testbed.Install(s.A.GW, s.B.GW, ab, keys(), s.addrA(i), s.addrB(i)); err != nil {
			return nil, err
		}
		if err := testbed.Install(s.B.GW, s.A.GW, ba, keys(), s.addrB(i), s.addrA(i)); err != nil {
			return nil, err
		}
	}
	if err := s.AddStandby(); err != nil {
		return nil, err
	}
	B1, sb := s.B.GW, s.Standby

	// Dead-peer detection on the surviving peer, probing over tunnel 0.
	s.mon, err = dpd.NewMonitor(dpd.Config{
		Engine:      s.e,
		IdleTimeout: time.Millisecond,
		AckTimeout:  500 * time.Microsecond,
		MaxProbes:   2,
		HoldTime:    time.Second,
		SendProbe: func(probeSeq uint64) {
			w, err := s.Seal(s.addrA(0), s.addrB(0), dpd.ProbePayload(probeSeq))
			if err != nil {
				return
			}
			if s.e.Rand().Float64() < s.loss {
				return
			}
			s.openB(w) //nolint:errcheck // an unanswered probe IS the signal
		},
	})
	if err != nil {
		return nil, err
	}

	// Phase 1: steady-state traffic through node 1.
	if err := s.phase(cfg.PacketsPerPhase); err != nil {
		return nil, err
	}
	preRejects := s.nFalseReject // horizon-settled steady state should have none

	// Capture the crash-instant truth: per-tunnel receive edges and used
	// send counters on the primary, and the replication gauges.
	edgeAtCrash := make([]uint64, cfg.Tunnels)
	for i, ab := range s.abSPI {
		in, _ := B1.SAD().Lookup(ab)
		edgeAtCrash[i] = in.Receiver().Edge()
	}
	lagRecords := sb.Stats().LagRecords
	lagValues := sb.LagValues()

	// Crash node 1 and let the outage run: DPD probes go unanswered and the
	// peer declares the cluster peer dead (within the §6 hold time).
	B1.ResetAll()
	crashAt := s.e.Now()
	s.e.RunFor(5 * time.Millisecond)

	// Epoch-fenced takeover; the promoted node announces itself with the §6
	// secured resurrection message, whose leaped sequence number the peer
	// necessarily accepts.
	epoch1, err := s.Promote()
	if err != nil {
		return nil, err
	}
	gw2 := s.B.GW
	for s.mon.State() != dpd.StateAlive {
		if err := s.sendToA(0, dpd.ResyncPayload()); err != nil {
			return nil, err
		}
		s.e.RunFor(100 * time.Microsecond)
		if s.e.Now()-crashAt > time.Second {
			return nil, fmt.Errorf("peer never saw the resurrection (monitor %v)", s.mon.State())
		}
	}
	blackout := s.e.Now() - crashAt

	// The false-reject window is exactly (wake edge - crash edge) per SA.
	var windowBound uint64
	for i, ab := range s.abSPI {
		in, ok := gw2.SAD().Lookup(ab)
		if !ok {
			return nil, fmt.Errorf("promoted gateway lacks inbound %#x", ab)
		}
		wake := in.Receiver().Edge()
		if wake < edgeAtCrash[i] {
			return nil, fmt.Errorf("tunnel %d: wake edge %d below crash edge %d (replay window!)",
				i, wake, edgeAtCrash[i])
		}
		windowBound += wake - edgeAtCrash[i]
	}
	k := cfg.Bed.K
	leap := core.Leap(k, core.DefaultLeapFactor)
	if bound := lagValues + uint64(cfg.Tunnels)*(leap+2*k); windowBound > bound {
		return nil, fmt.Errorf("window bound %d exceeds lag-derived bound %d (lag_values=%d)",
			windowBound, bound, lagValues)
	}

	// Phase 2 through the promoted node; its false rejects are the failover
	// sacrifice and must fit the window.
	s.nFalseReject = 0
	if err := s.phase(cfg.PacketsPerPhase / 2); err != nil {
		return nil, err
	}
	falseRejects := s.nFalseReject
	if uint64(falseRejects) > windowBound {
		return nil, fmt.Errorf("false rejects %d exceed window bound %d", falseRejects, windowBound)
	}
	if err := s.ReplayAll(); err != nil {
		return nil, err
	}

	// Node 1 reboots and re-syncs as the standby of the interim primary.
	if err := s.AddStandby(); err != nil {
		return nil, err
	}
	if err := s.phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}

	// Failback as a SPLIT BRAIN: promote node 1 while the interim primary
	// is still up and writing. Record the interim primary's used counters
	// first — the regression check.
	used2 := make([]uint64, cfg.Tunnels)
	for i, ba := range s.baSPI {
		out, _ := gw2.Outbound(ba)
		used2[i] = out.Sender().Seq()
	}
	epoch2, err := s.Promote()
	if err != nil {
		return nil, err
	}
	gw3 := s.B.GW

	// The deposed primary keeps writing: its journal is fenced, so every SA
	// stalls within its horizon — fewer than leap numbers each.
	deposedSeals := 0
	for i := 0; i < cfg.Tunnels; i++ {
		for n := 0; n < int(2*leap); n++ {
			if _, err := gw2.Seal(s.addrB(i), s.addrA(i), []byte("split-brain")); err != nil {
				break
			}
			deposedSeals++
		}
	}
	if deposedSeals > cfg.Tunnels*int(leap) {
		return nil, fmt.Errorf("deposed primary sealed %d packets, beyond its horizon (%d per SA)",
			deposedSeals, leap)
	}
	if err := s.C.Medium.Cell(ipsec.OutboundKey(s.baSPI[0])).Save(1 << 40); !errors.Is(err, store.ErrFenced) {
		return nil, fmt.Errorf("deposed journal write = %v, want ErrFenced", err)
	}

	// The failback node serves; counters must not have regressed.
	regressions := 0
	for i, ba := range s.baSPI {
		out, ok := gw3.Outbound(ba)
		if !ok {
			return nil, fmt.Errorf("failback gateway lacks outbound %#x", ba)
		}
		if out.Sender().Seq() < used2[i] {
			regressions++
		}
	}
	if err := s.phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}
	if err := s.ReplayAll(); err != nil {
		return nil, err
	}
	if s.Replays() > 0 || regressions > 0 {
		return nil, fmt.Errorf("%d replays accepted, %d counters regressed across the failovers",
			s.Replays(), regressions)
	}

	return []string{
		fmt.Sprintf("%.0f%%", loss*100),
		fmt.Sprint(s.nDelivered),
		fmt.Sprint(lagRecords),
		fmt.Sprint(lagValues),
		fmt.Sprintf("%d (pre %d)", falseRejects, preRejects),
		fmt.Sprint(windowBound),
		fmt.Sprint(blackout),
		fmt.Sprint(s.Replays()),
		fmt.Sprint(deposedSeals),
		fmt.Sprintf("%d->%d", epoch1, epoch2),
		fmt.Sprint(regressions),
	}, nil
}
