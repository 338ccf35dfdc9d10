package experiments

import (
	"fmt"
	"time"
)

// leapK is the leap table's SAVE interval.
const leapK = 24

// leapAblation answers "why 2K?", sweeping λ from 0 to the paper's 2 and
// one beyond. The reset is injected at the worst point of the save cycle
// (the save has been in flight for almost a full trigger interval, so
// FETCH returns a value nearly 2K behind). With λ < 2 the
// leaped sender collides with already-used sequence numbers (fresh
// discards) and the leaped receiver's edge lands below already-received
// numbers (replays accepted — a safety violation). λ = 2 is the smallest
// safe multiplier; larger values only waste more numbers.
func leapAblation() (*Table, error) {
	t := &Table{
		ID:    "leap",
		Title: "Leap-number ablation: leap = ceil(λK) under a worst-case reset",
		Note: fmt.Sprintf("K=%d, reset just before the next SAVE starts with the previous one torn. "+
			"Expect: λ<2 rows unsafe (duplicate deliveries / fresh discards); λ>=2 rows safe.", leapK),
		Columns: []string{"lambda", "sender_fresh_discards", "receiver_dup_deliveries", "safe"},
	}
	for _, lambda := range []float64{0, 0.5, 1, 1.5, 2, 3} {
		fd, err := leapSenderDamage(lambda)
		if err != nil {
			return nil, err
		}
		ra, err := leapReceiverDamage(lambda)
		if err != nil {
			return nil, err
		}
		safe := fd == 0 && ra == 0
		t.AddRow(fmt.Sprintf("%.1f", lambda), fmt.Sprint(fd), fmt.Sprint(ra), fmt.Sprint(safe))
	}
	return t, nil
}

// leapFlowConfig sizes the save to span a whole trigger interval, making
// the torn-save gap approach its 2K maximum. A zero lambda means no leap
// at all.
func leapFlowConfig(lambda float64) FlowConfig {
	fc := DefaultFlowConfig(1)
	fc.Kp, fc.Kq = leapK, leapK
	fc.SaveDelay = leapK * fc.SendInterval
	if lambda == 0 {
		fc.LeapFactor = -1 // disable the leap entirely
	} else {
		fc.LeapFactor = lambda
	}
	return fc
}

func leapSenderDamage(lambda float64) (uint64, error) {
	f, err := NewFlow(leapFlowConfig(lambda))
	if err != nil {
		return 0, err
	}
	resetAt := uint64(4*leapK - 1) // just before the next save starts; current one torn
	f.AtSendCount(resetAt, func() {
		f.Sender.Reset()
		f.Engine.After(time.Millisecond, f.Sender.Wake)
	})
	f.StartTraffic(time.Hour)
	fc := f.cfg
	f.Run(time.Duration(resetAt)*fc.SendInterval + time.Millisecond + 50*time.Millisecond)
	return f.Matrix.FreshDiscarded(), nil
}

func leapReceiverDamage(lambda float64) (uint64, error) {
	f, err := NewFlow(leapFlowConfig(lambda))
	if err != nil {
		return 0, err
	}
	fc := f.cfg
	resetAt := uint64(4*leapK - 1)
	f.AtObserveCount(resetAt, func() {
		f.StopTraffic() // isolate the replay damage from fresh-traffic effects
		f.Receiver.Reset()
		f.Engine.After(time.Millisecond, func() {
			f.Receiver.Wake()
			f.ReplayAllAt(f.Engine.Now()+fc.SaveDelay+fc.Link.Delay, fc.SendInterval)
		})
	})
	f.StartTraffic(time.Hour)
	f.Run(time.Duration(resetAt)*fc.SendInterval + time.Millisecond + 50*time.Millisecond)
	return f.DupDeliveries(), nil
}
