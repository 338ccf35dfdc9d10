package experiments

import (
	"fmt"
	"time"
)

// figOffsets sweep one full save cycle of both figures' K, the paper's 25
// (DefaultFlowConfig's): each is the send or receive count, relative to a
// steady-state save-cycle start, at which the reset strikes.
var figOffsets = []uint64{0, 2, 5, 9, 12, 13, 15, 18, 21, 24}

// fig1SenderReset reproduces Figure 1: a reset strikes the sender at a
// chosen offset within a steady-state save cycle; the experiment reports the
// value FETCH returns, the gap to the last used sequence number, the resume
// point, and the number of lost sequence numbers — all bounded by 2Kp —
// plus the count of fresh messages the receiver discards after the wake-up
// (zero, §5 condition (i)).
func fig1SenderReset() (*Table, error) {
	t := &Table{
		ID:    "fig1",
		Title: "Sender reset within a save cycle (paper Fig. 1)",
		Note: fmt.Sprintf("Kp=%d, leap=2Kp=%d. Expect: lost <= 2Kp always; "+
			"gap largest when the reset lands mid-save (torn write); zero fresh discards after wake.",
			paperK, 2*paperK),
		Columns: []string{"reset@send", "save", "fetched", "last_used", "gap",
			"resumed", "lost", "bound_2K", "ok", "fresh_discards"},
	}

	for _, off := range figOffsets {
		row, err := fig1Row(off)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func fig1Row(off uint64) ([]string, error) {
	fc := DefaultFlowConfig(1)
	// Size the save to span half a trigger interval: the cycle has an
	// in-flight phase (offsets < K/2) and a committed phase (offsets >= K/2).
	fc.SaveDelay = time.Duration(paperK/2) * fc.SendInterval
	f, err := NewFlow(fc)
	if err != nil {
		return nil, err
	}

	// Steady state: the 4th save cycle starts at send 4K (s = 4K+1, SAVE(4K+1)).
	cycleStart := uint64(4 * paperK)
	resetAt := cycleStart + off
	const outage = time.Millisecond

	var (
		lastUsed uint64
		inFlight bool
		fetched  uint64
	)
	f.AtSendCount(resetAt, func() {
		lastUsed = f.LastSent()
		inFlight = f.senderSaver.InFlight()
		f.Sender.Reset()
		f.Engine.After(outage, func() {
			v, _, err := f.SenderStore.Fetch()
			if err == nil {
				fetched = v
			}
			f.Sender.Wake()
		})
	})

	f.StartTraffic(time.Second)
	horizon := time.Duration(resetAt)*fc.SendInterval + outage + 10*time.Millisecond
	f.Run(horizon)

	resumed := fetched + 2*paperK
	gap := lastUsed - fetched
	lost := resumed - lastUsed - 1
	bound := uint64(2 * paperK)
	saveState := "committed"
	if inFlight {
		saveState = "in-flight"
	}
	freshDiscards := f.Matrix.FreshDiscarded()
	ok := lost <= bound && freshDiscards == 0

	return []string{
		fmt.Sprint(resetAt), saveState, fmt.Sprint(fetched), fmt.Sprint(lastUsed),
		fmt.Sprint(gap), fmt.Sprint(resumed), fmt.Sprint(lost), fmt.Sprint(bound),
		fmt.Sprint(ok), fmt.Sprint(freshDiscards),
	}, nil
}

// fig2ReceiverReset reproduces Figure 2: a reset strikes the receiver at a
// chosen offset within a save cycle. After the wake-up the adversary replays
// the entire recorded history while the sender keeps transmitting. The
// experiment reports the fetched edge, the resume edge, the number of fresh
// messages sacrificed (bounded by 2Kq, §5 condition (ii)), and the number
// of replays accepted (zero — the safety theorem).
func fig2ReceiverReset() (*Table, error) {
	t := &Table{
		ID:    "fig2",
		Title: "Receiver reset within a save cycle (paper Fig. 2)",
		Note: fmt.Sprintf("Kq=%d, leap=2Kq=%d. Expect: fresh sacrifices <= 2Kq; "+
			"no sequence number is ever delivered twice (dup_delivered = 0).", paperK, 2*paperK),
		Columns: []string{"reset@recv", "save", "fetched", "last_recv",
			"resumed_edge", "sacrificed", "bound_2K", "replayed", "dup_delivered", "ok"},
	}
	for _, off := range figOffsets {
		row, err := fig2Row(off)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func fig2Row(off uint64) ([]string, error) {
	fc := DefaultFlowConfig(1)
	fc.SaveDelay = time.Duration(paperK/2) * fc.SendInterval
	f, err := NewFlow(fc)
	if err != nil {
		return nil, err
	}

	cycleStart := uint64(4 * paperK)
	resetAt := cycleStart + off
	// A short outage keeps the sender's counter below the leaped edge at
	// wake time, exposing the fresh-sacrifice window the paper bounds.
	outage := 5 * fc.SendInterval

	var (
		lastRecv uint64
		inFlight bool
		fetched  uint64
	)
	f.AtObserveCount(resetAt, func() {
		lastRecv = f.Receiver.Edge()
		inFlight = f.receiverSaver.InFlight()
		f.Receiver.Reset()
		f.Engine.After(outage, func() {
			v, _, err := f.ReceiverStore.Fetch()
			if err == nil {
				fetched = v
			}
			f.Receiver.Wake()
			// The adversary replays the full history right after the wake.
			f.ReplayAllAt(f.Engine.Now()+fc.SaveDelay+fc.Link.Delay, fc.SendInterval)
		})
	})

	f.StartTraffic(time.Second)
	horizon := time.Duration(resetAt)*fc.SendInterval + outage + 20*time.Millisecond
	f.Run(horizon)

	resumedEdge := fetched + 2*paperK
	sacrificed := f.Matrix.FreshDiscarded()
	replayed := f.Link.Stats().Injected
	dups := f.DupDeliveries()
	bound := uint64(2 * paperK)
	saveState := "committed"
	if inFlight {
		saveState = "in-flight"
	}
	ok := sacrificed <= bound && dups == 0

	return []string{
		fmt.Sprint(resetAt), saveState, fmt.Sprint(fetched), fmt.Sprint(lastRecv),
		fmt.Sprint(resumedEdge), fmt.Sprint(sacrificed), fmt.Sprint(bound),
		fmt.Sprint(replayed), fmt.Sprint(dups), fmt.Sprint(ok),
	}, nil
}
