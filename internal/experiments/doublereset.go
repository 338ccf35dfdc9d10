package experiments

import (
	"fmt"
	"time"
)

// doubleReset reproduces the §4 second consideration, at the paper's K: a
// second reset strikes after the wake-up but before the post-wake SAVE has
// committed. Under the paper's protocol the endpoint refuses to serve until
// that SAVE completes, so no sequence number is consumed in the vulnerable
// window and nothing can be reused. The ablation variant resumes immediately after
// FETCH+leap — the naive implementation — and demonstrably reuses sequence
// numbers (sender) and re-accepts replays (receiver) after the second
// reset.
func doubleReset() (*Table, error) {
	t := &Table{
		ID:    "doublereset",
		Title: "Double reset before the post-wake SAVE commits (§4)",
		Note: "paper = wait for the post-wake SAVE (safe); ablation = resume immediately " +
			"(unsafe). Expect reuse/duplicate deliveries only in the ablation rows.",
		Columns: []string{"variant", "side", "sent_in_window", "seqs_reused",
			"dup_deliveries", "safe"},
	}

	for _, ablation := range []bool{false, true} {
		sent, reused, err := doubleResetSender(ablation)
		if err != nil {
			return nil, err
		}
		name := "paper"
		if ablation {
			name = "ablation"
		}
		t.AddRow(name, "sender", fmt.Sprint(sent), fmt.Sprint(reused), "-",
			fmt.Sprint(reused == 0))

		dups, err := doubleResetReceiver(ablation)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "receiver", "-", "-", fmt.Sprint(dups),
			fmt.Sprint(dups == 0))
	}
	return t, nil
}

// doubleResetSender runs: traffic, reset, wake, more traffic inside the
// post-wake-save window (only possible in the ablation), second reset
// before the save commits, wake, traffic. It reports how many sequence
// numbers were handed out inside the vulnerable window and how many were
// reused afterwards.
func doubleResetSender(ablation bool) (sent int, reused int, err error) {
	fc := DefaultFlowConfig(1)
	fc.SkipPostWakeSave = ablation
	f, err := NewFlow(fc)
	if err != nil {
		return 0, 0, err
	}

	used := make(map[uint64]int)
	record := func() (uint64, bool) {
		seq, err := f.Sender.Next()
		if err != nil {
			return 0, false
		}
		used[seq]++
		return seq, true
	}

	// Warm-up traffic directly (no link needed for this experiment).
	for i := 0; i < 3*paperK; i++ {
		record()
	}
	f.Run(fc.SaveDelay * 10) // let background saves commit

	f.Sender.Reset()
	f.Engine.After(time.Millisecond, f.Sender.Wake)
	f.Run(f.Engine.Now() + time.Millisecond) // wake begins; save in flight

	// Vulnerable window: before the post-wake save commits.
	inWindow := 0
	for i := 0; i < 5; i++ {
		if _, ok := record(); ok {
			inWindow++
		}
	}

	f.Sender.Reset() // second reset tears the post-wake save
	f.Engine.After(time.Millisecond, f.Sender.Wake)
	f.Run(f.Engine.Now() + time.Millisecond + fc.SaveDelay*4)

	for i := 0; i < 3*paperK; i++ {
		record()
	}
	for _, n := range used {
		if n > 1 {
			reused += n - 1
		}
	}
	return inWindow, reused, nil
}

// doubleResetReceiver runs the mirror scenario. The receiver's first outage
// is long, so the sender's counter races far past the leaped edge; in the
// vulnerable window after the first wake the ablation variant then delivers
// those high sequence numbers and advances its edge *without any durable
// record*. The second reset rolls the edge back, and replaying the
// vulnerable-window traffic is accepted a second time — duplicate
// deliveries, the safety violation the paper's synchronous post-wake SAVE
// prevents. The paper variant buffers instead of delivering, so nothing can
// repeat.
func doubleResetReceiver(ablation bool) (dups uint64, err error) {
	fc := DefaultFlowConfig(1)
	fc.SkipPostWakeSave = ablation
	f, err := NewFlow(fc)
	if err != nil {
		return 0, err
	}

	f.StartTraffic(time.Hour)
	f.Run(time.Duration(3*paperK) * fc.SendInterval * 2)

	// Long first outage: the sender races ~250 numbers ahead.
	f.Receiver.Reset()
	f.Engine.After(time.Millisecond, f.Receiver.Wake)
	// Vulnerable window: half the post-wake save's duration. The ablation
	// serves (and advances its edge); the paper variant buffers.
	f.Run(f.Engine.Now() + time.Millisecond + fc.SaveDelay/2)

	// Second reset tears the post-wake save (and any edge advance with it).
	// Stop traffic so fresh sends cannot mask the rollback afterwards.
	f.Receiver.Reset()
	f.StopTraffic()
	f.Engine.After(time.Millisecond, f.Receiver.Wake)
	f.Run(f.Engine.Now() + time.Millisecond + fc.SaveDelay*4)

	// The adversary replays everything recorded, including the
	// vulnerable-window traffic.
	f.ReplayAllAt(f.Engine.Now(), fc.SendInterval)
	f.Run(f.Engine.Now() + time.Second)
	return f.DupDeliveries(), nil
}
