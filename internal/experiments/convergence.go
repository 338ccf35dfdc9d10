package experiments

import (
	"fmt"
	"time"
)

// convergenceKs is the sweep of SAVE intervals both convergence tables
// run, two orders of magnitude.
var convergenceKs = []uint64{2, 5, 25, 100, 400}

// convergenceSender verifies §5 condition (i) across K in the paper's worst
// case: the SAVE captures the counter and commits, and the reset strikes
// before any further message is sent ("s-Kp+1 has not been used"). The
// wake-up then resumes at fetched+2K, wasting exactly 2K sequence numbers —
// and, because the resumed counter exceeds everything previously used, the
// receiver discards no fresh message.
func convergenceSender() (*Table, error) {
	t := &Table{
		ID:    "convsender",
		Title: "Sender convergence across K (§5 condition i, worst case)",
		Note:  "Reset right after a SAVE commits with nothing sent since its capture. Expect lost = 2K exactly, fresh discards = 0, dup deliveries = 0.",
		Columns: []string{"K", "last_used", "fetched", "resumed", "lost",
			"bound_2K", "tight", "fresh_discards", "ok"},
	}
	for _, k := range convergenceKs {
		fc := DefaultFlowConfig(1)
		fc.Kp, fc.Kq = k, k
		fc.SaveDelay = time.Duration(k/2+1) * fc.SendInterval
		f, err := NewFlow(fc)
		if err != nil {
			return nil, err
		}
		// The save cycle at send 3K captures value 3K+1. Pause traffic
		// there (the paper's worst case needs the rate to drop), let the
		// save commit, then reset and wake.
		trigger := 3 * k
		var fetched uint64
		f.AtSendCount(trigger, func() {
			f.StopTraffic()
			f.Engine.After(2*fc.SaveDelay, func() { // SAVE(3K+1) is durable now
				f.Sender.Reset()
				f.Engine.After(time.Millisecond, func() {
					v, _, err := f.SenderStore.Fetch()
					if err == nil {
						fetched = v
					}
					f.Sender.Wake()
					// Resume traffic once the post-wake save completes.
					f.Engine.After(2*fc.SaveDelay, func() { f.StartTraffic(time.Hour) })
				})
			})
		})
		f.StartTraffic(time.Hour)
		horizon := time.Duration(trigger)*fc.SendInterval + time.Millisecond +
			10*fc.SaveDelay + time.Duration(3*k)*fc.SendInterval + 10*time.Millisecond
		f.Run(horizon)

		lastUsed := trigger // seqs 1..3K used before the pause
		resumed := fetched + 2*k
		lost := resumed - lastUsed - 1
		bound := 2 * k
		fresh := f.Matrix.FreshDiscarded()
		ok := lost <= bound && fresh == 0 && f.DupDeliveries() == 0
		t.AddRow(fmt.Sprint(k), fmt.Sprint(lastUsed), fmt.Sprint(fetched),
			fmt.Sprint(resumed), fmt.Sprint(lost), fmt.Sprint(bound),
			fmt.Sprint(lost == bound), fmt.Sprint(fresh), fmt.Sprint(ok))
	}
	return t, nil
}

// convergenceReceiver verifies §5 condition (ii) across K in the paper's
// worst case: the SAVE of edge r commits and the reset strikes before any
// further message is received. The wake-up reinstalls the edge at
// fetched+2K, so the next 2K fresh messages — exactly the numbers between
// r and r+2K — are sacrificed, and nothing is ever delivered twice even
// though the adversary replays the entire history.
func convergenceReceiver() (*Table, error) {
	t := &Table{
		ID:    "convreceiver",
		Title: "Receiver convergence across K (§5 condition ii, worst case)",
		Note:  "Reset right after a SAVE commits with nothing received since its capture; full-history replay after wake. Expect sacrifices = 2K exactly, dup deliveries = 0.",
		Columns: []string{"K", "last_recv", "fetched", "resumed_edge",
			"sacrificed", "bound_2K", "tight", "replayed", "dup_delivered", "ok"},
	}
	for _, k := range convergenceKs {
		fc := DefaultFlowConfig(1)
		fc.Kp, fc.Kq = k, k
		fc.SaveDelay = time.Duration(k/2+1) * fc.SendInterval
		f, err := NewFlow(fc)
		if err != nil {
			return nil, err
		}
		// The receiver's save cycle at edge 3K captures value 3K. Pause the
		// sender there so nothing else is received, let the save commit,
		// then reset, wake, replay history, and resume traffic.
		// Pause by *send* count so no packets remain in flight when the
		// receiver's SAVE at edge 3K commits.
		trigger := 3 * k
		var fetched uint64
		f.AtSendCount(trigger, func() {
			f.StopTraffic()
			f.Engine.After(2*fc.SaveDelay+2*fc.Link.Delay, func() {
				f.Receiver.Reset()
				f.Engine.After(time.Millisecond, func() {
					v, _, err := f.ReceiverStore.Fetch()
					if err == nil {
						fetched = v
					}
					f.Receiver.Wake()
					f.Engine.After(2*fc.SaveDelay, func() {
						f.ReplayAllAt(f.Engine.Now(), fc.SendInterval)
						f.StartTraffic(time.Hour)
					})
				})
			})
		})
		f.StartTraffic(time.Hour)
		horizon := time.Duration(trigger)*fc.SendInterval + time.Millisecond +
			10*fc.SaveDelay + time.Duration(6*k)*fc.SendInterval + 20*time.Millisecond
		f.Run(horizon)

		lastRecv := trigger
		resumed := fetched + 2*k
		sacrificed := f.Matrix.FreshDiscarded()
		replayed := f.Link.Stats().Injected
		dups := f.DupDeliveries()
		bound := 2 * k
		ok := sacrificed <= bound && dups == 0
		t.AddRow(fmt.Sprint(k), fmt.Sprint(lastRecv), fmt.Sprint(fetched),
			fmt.Sprint(resumed), fmt.Sprint(sacrificed), fmt.Sprint(bound),
			fmt.Sprint(sacrificed == bound), fmt.Sprint(replayed),
			fmt.Sprint(dups), fmt.Sprint(ok))
	}
	return t, nil
}
