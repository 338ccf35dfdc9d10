package experiments

import (
	"fmt"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/dpd"
	"antireplay/internal/netsim"
	"antireplay/internal/store"
)

// prolongedDPD is the surviving host's dead-peer detection: death is
// declared after 10s+3*2s=16s and SAs are held for 60s.
var prolongedDPD = dpd.Config{
	IdleTimeout: 10 * time.Second,
	AckTimeout:  2 * time.Second,
	MaxProbes:   3,
	HoldTime:    60 * time.Second,
}

// prolongedReset reproduces the §6 remark, its outages sweeping the alive,
// dead and expired regimes: host A keeps its SAs alive for a hold time
// after detecting that host B is unreachable. If B wakes within
// the hold time, its secured "I am up" message — whose sequence number was
// leaped past everything used before the reset — revives the association
// with no renegotiation; a replayed pre-reset message cannot, because its
// sequence number falls at or below A's window edge. Past the hold time the
// SA is expired and only IKE can recover.
func prolongedReset() (*Table, error) {
	t := &Table{
		ID:    "prolonged",
		Title: "Prolonged resets with dead-peer detection (§6)",
		Note: fmt.Sprintf("Death declared at %v, SAs held %v. Expect revival iff the wake lands before expiry; "+
			"replayed announcements never revive.",
			prolongedDPD.IdleTimeout+time.Duration(prolongedDPD.MaxProbes)*prolongedDPD.AckTimeout, prolongedDPD.HoldTime),
		Columns: []string{"outage", "state_at_wake", "resync_verdict",
			"revived", "replayed_resync_delivered", "ike_required"},
	}
	for _, outage := range []time.Duration{5 * time.Second, 30 * time.Second, 70 * time.Second, 120 * time.Second} {
		row, err := prolongedRow(outage)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func prolongedRow(outage time.Duration) ([]string, error) {
	engine := netsim.NewEngine(1)

	// Host B's sending state (B -> A direction), with SAVE/FETCH.
	var bStore store.Mem
	bSender, err := core.NewSender(core.SenderConfig{
		K:     paperK,
		Store: &bStore,
		Saver: netsim.NewSimSaver(engine, &bStore, 100*time.Microsecond),
	})
	if err != nil {
		return nil, err
	}
	// Host A's receiving state for B's traffic.
	var aStore store.Mem
	aReceiver, err := core.NewReceiver(core.ReceiverConfig{
		K:     paperK,
		W:     64,
		Store: &aStore,
		Saver: netsim.NewSimSaver(engine, &aStore, 100*time.Microsecond),
	})
	if err != nil {
		return nil, err
	}

	dc := prolongedDPD
	dc.Engine = engine
	dc.SendProbe = func(uint64) {} // B is down; probes vanish
	mon, err := dpd.NewMonitor(dc)
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
