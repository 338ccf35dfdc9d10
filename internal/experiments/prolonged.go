package experiments

import (
	"fmt"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/dpd"
	"antireplay/internal/netsim"
	"antireplay/internal/store"
)

// ProlongedConfig parameterizes the §6 prolonged-reset scenario.
type ProlongedConfig struct {
	// Outages is the sweep of reset durations.
	Outages []time.Duration
	// IdleTimeout, AckTimeout, MaxProbes, HoldTime configure DPD at the
	// surviving host.
	IdleTimeout time.Duration
	AckTimeout  time.Duration
	MaxProbes   int
	HoldTime    time.Duration
	// Seed drives the simulation.
	Seed int64
}

// DefaultProlongedConfig detects death after 10s+3*2s=16s and holds SAs for
// 60s, sweeping outages across the alive/dead/expired regimes.
func DefaultProlongedConfig() ProlongedConfig {
	return ProlongedConfig{
		Outages:     []time.Duration{5 * time.Second, 30 * time.Second, 70 * time.Second, 120 * time.Second},
		IdleTimeout: 10 * time.Second,
		AckTimeout:  2 * time.Second,
		MaxProbes:   3,
		HoldTime:    60 * time.Second,
		Seed:        1,
	}
}

// ProlongedReset reproduces the §6 remark: host A keeps its SAs alive for a
// hold time after detecting that host B is unreachable. If B wakes within
// the hold time, its secured "I am up" message — whose sequence number was
// leaped past everything used before the reset — revives the association
// with no renegotiation; a replayed pre-reset message cannot, because its
// sequence number falls at or below A's window edge. Past the hold time the
// SA is expired and only IKE can recover.
func ProlongedReset(cfg ProlongedConfig) (*Table, error) {
	t := &Table{
		ID:    "prolonged",
		Title: "Prolonged resets with dead-peer detection (§6)",
		Note: fmt.Sprintf("Death declared at %v, SAs held %v. Expect revival iff the wake lands before expiry; "+
			"replayed announcements never revive.",
			cfg.IdleTimeout+time.Duration(cfg.MaxProbes)*cfg.AckTimeout, cfg.HoldTime),
		Columns: []string{"outage", "state_at_wake", "resync_verdict",
			"revived", "replayed_resync_delivered", "ike_required"},
	}
	for _, outage := range cfg.Outages {
		row, err := prolongedRow(cfg, outage)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func prolongedRow(cfg ProlongedConfig, outage time.Duration) ([]string, error) {
	engine := netsim.NewEngine(cfg.Seed)

	// Host B's sending state (B -> A direction), with SAVE/FETCH.
	var bStore store.Mem
	bSender, err := core.NewSender(core.SenderConfig{
		K:     25,
		Store: &bStore,
		Saver: netsim.NewSimSaver(engine, &bStore, 100*time.Microsecond),
	})
	if err != nil {
		return nil, err
	}
	// Host A's receiving state for B's traffic.
	var aStore store.Mem
	aReceiver, err := core.NewReceiver(core.ReceiverConfig{
		K:     25,
		W:     64,
		Store: &aStore,
		Saver: netsim.NewSimSaver(engine, &aStore, 100*time.Microsecond),
	})
	if err != nil {
		return nil, err
	}

	mon, err := dpd.NewMonitor(dpd.Config{
		Engine:      engine,
		IdleTimeout: cfg.IdleTimeout,
		AckTimeout:  cfg.AckTimeout,
		MaxProbes:   cfg.MaxProbes,
		HoldTime:    cfg.HoldTime,
		SendProbe:   func(uint64) {}, // B is down; probes vanish
	})
	if err != nil {
		return nil, err
	}

	// Phase 1: B sends a message each second for 5s; A sees life.
	var lastSeqBeforeReset uint64
	for i := 1; i <= 5; i++ {
		engine.At(time.Duration(i)*time.Second, func() {
			seq, err := bSender.Next()
			if err != nil {
				return
			}
			lastSeqBeforeReset = seq
			if aReceiver.Admit(seq).Delivered() {
				mon.NoteInbound()
			}
		})
	}

	// Phase 2: B resets at 6s for the given outage.
	resetAt := 6 * time.Second
	wakeAt := resetAt + outage
	engine.At(resetAt, bSender.Reset)
	engine.At(wakeAt, bSender.Wake)

	var (
		stateAtWake     dpd.PeerState
		resyncVerdict   core.Verdict
		revived         bool
		replayDelivered bool
	)
	// Phase 3: on wake (plus save time), B announces itself; meanwhile an
	// adversary replays B's last pre-reset message.
	announceAt := wakeAt + time.Millisecond
	engine.At(announceAt, func() {
		stateAtWake = mon.State()

		// Adversarial replay of an old message first: it must not revive.
		if mon.State() != dpd.StateExpired {
			if aReceiver.Admit(lastSeqBeforeReset).Delivered() {
				replayDelivered = true
				mon.NoteInbound()
			}
		}

		if mon.State() == dpd.StateExpired {
			return // SA gone; only IKE can help
		}
		seq, err := bSender.Next() // the secured "I am up" (leaped seq)
		if err != nil {
			return
		}
		resyncVerdict = aReceiver.Admit(seq)
		if resyncVerdict.Delivered() {
			mon.NoteInbound()
			revived = mon.State() == dpd.StateAlive
		}
	})

	engine.RunUntil(wakeAt + 10*time.Second)

	ikeRequired := stateAtWake == dpd.StateExpired
	verdictStr := "n/a (expired)"
	if !ikeRequired {
		verdictStr = resyncVerdict.String()
	}
	return []string{
		outage.String(), stateAtWake.String(), verdictStr,
		fmt.Sprint(revived), fmt.Sprint(replayDelivered), fmt.Sprint(ikeRequired),
	}, nil
}
