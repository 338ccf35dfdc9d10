package experiments

import (
	"errors"
	"fmt"
	"time"
)

// unboundedBaseline reproduces the §3 claims, one row pair per pre-reset
// message count x in traffic: under the baseline (§2) protocol, the damage
// of a reset grows without bound in x — the adversary replays all x messages into a freshly
// reset receiver and they are all accepted; a freshly reset sender has all
// its messages discarded until its counter climbs past the receiver's old
// edge (≈ x discards). The resilient protocol holds both at <= 2K
// regardless of x. A least-squares fit of damage against x demonstrates
// slope ≈ 1 (unbounded) vs slope ≈ 0 (bounded).
func unboundedBaseline(traffic ...uint64) (*Table, error) {
	t := &Table{
		ID:    "unbounded",
		Title: "Baseline vs resilient damage as pre-reset traffic grows (§3)",
		Columns: []string{"x_msgs", "protocol", "replays_delivered_again",
			"fresh_discarded_after_sender_reset"},
	}

	var xs, baseReplay, baseDiscard, resReplay, resDiscard []float64
	for _, x := range traffic {
		for _, baseline := range []bool{true, false} {
			ra, err := receiverResetReplayDamage(x, baseline)
			if err != nil {
				return nil, err
			}
			fd, err := senderResetDiscardDamage(x, baseline)
			if err != nil {
				return nil, err
			}
			name := "resilient"
			if baseline {
				name = "baseline"
				baseReplay = append(baseReplay, float64(ra))
				baseDiscard = append(baseDiscard, float64(fd))
			} else {
				resReplay = append(resReplay, float64(ra))
				resDiscard = append(resDiscard, float64(fd))
			}
			t.AddRow(fmt.Sprint(x), name, fmt.Sprint(ra), fmt.Sprint(fd))
		}
		xs = append(xs, float64(x))
	}

	note := "Expect: baseline damage grows ~linearly in x (slope ~1); resilient stays <= 2K."
	if slope, _, r2, err := linearFit(xs, baseReplay); err == nil {
		note += fmt.Sprintf(" Baseline replay slope=%.3f (r2=%.3f).", slope, r2)
	}
	if slope, _, r2, err := linearFit(xs, baseDiscard); err == nil {
		note += fmt.Sprintf(" Baseline discard slope=%.3f (r2=%.3f).", slope, r2)
	}
	if slope, _, _, err := linearFit(xs, resReplay); err == nil {
		note += fmt.Sprintf(" Resilient replay slope=%.3f.", slope)
	}
	if slope, _, _, err := linearFit(xs, resDiscard); err == nil {
		note += fmt.Sprintf(" Resilient discard slope=%.3f.", slope)
	}
	t.Note = note
	return t, nil
}

// linearFit is the least-squares line y = slope*x + intercept through the
// paired observations, with r2 its coefficient of determination. It is what
// turns §3's "grows without bound" into a measurement: unboundedBaseline
// fits damage against pre-reset traffic, so "grows linearly" is a fitted
// slope rather than a narrative. It fails on mismatched lengths, fewer than
// two points, or constant x (a vertical line).
func linearFit(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("linear fit: len(xs)=%d len(ys)=%d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, 0, errors.New("linear fit needs >= 2 points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("linear fit undefined for constant x")
	}
	slope = sxy / sxx
	r2 = 1 // constant y is fit exactly by a horizontal line
	if syy != 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return slope, my - slope*mx, r2, nil
}

// receiverResetReplayDamage sends x messages, resets+wakes the receiver,
// replays the full history, and counts the messages delivered a second
// time (the §3 replay damage).
func receiverResetReplayDamage(x uint64, baseline bool) (uint64, error) {
	fc := DefaultFlowConfig(1)
	fc.Baseline = baseline
	f, err := NewFlow(fc)
	if err != nil {
		return 0, err
	}
	f.AtSendCount(x, func() { f.StopTraffic() })
	f.StartTraffic(time.Hour)
	f.Run(time.Duration(x+10) * fc.SendInterval * 2)

	// Reset and wake the receiver, then replay everything.
	f.Receiver.Reset()
	f.Receiver.Wake()
	f.Run(f.Engine.Now() + fc.SaveDelay*2) // let the post-wake save finish
	f.ReplayAllAt(f.Engine.Now(), fc.SendInterval)
	f.Run(f.Engine.Now() + time.Duration(x+10)*fc.SendInterval*2)

	return f.DupDeliveries(), nil
}

// senderResetDiscardDamage sends x messages, resets+wakes the sender, and
// counts how many of the next 2x fresh messages the receiver discards.
func senderResetDiscardDamage(x uint64, baseline bool) (uint64, error) {
	fc := DefaultFlowConfig(1)
	fc.Baseline = baseline
	f, err := NewFlow(fc)
	if err != nil {
		return 0, err
	}
	f.AtSendCount(x, func() {
		f.Sender.Reset()
		f.Engine.After(fc.SaveDelay, f.Sender.Wake)
	})
	f.StartTraffic(time.Hour)
	// Let the sender emit roughly 2x more messages after the wake.
	f.Run(time.Duration(3*x+200) * fc.SendInterval * 2)
	return f.Matrix.FreshDiscarded(), nil
}
