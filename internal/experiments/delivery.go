package experiments

import (
	"fmt"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/netsim"
)

// delivery verifies the §2 conditions on the full stack, messages fresh
// messages a row: Discrimination (no sequence number is ever delivered
// twice, even under network duplication) and w-Delivery (messages neither
// lost nor reordered by degree >= w are delivered — so the only
// window-caused fresh discards appear when the reorder delay can exceed w
// send intervals). The rows sweep clean, lossy, duplicating, mildly
// reordering (degree < w) and violently reordering (degree can exceed w)
// links.
func delivery(messages uint64) (*Table, error) {
	base := DefaultFlowConfig(1)
	t := &Table{
		ID:    "delivery",
		Title: "w-Delivery and Discrimination under link impairments (§2)",
		Note: fmt.Sprintf("w=%d. Expect: dupes_delivered=0 in every row; window_discards=0 unless "+
			"the reorder delay exceeds w send intervals; delivered ~= sent*(1-loss).", base.W),
		Columns: []string{"link", "sent", "delivered", "dupes_delivered",
			"window_discards", "net_lost"},
	}
	for _, row := range []struct {
		name               string
		loss, dup, reorder float64
		reorderIntervals   int // reorder delay in send intervals: the worst reorder degree
	}{
		{name: "clean"},
		{name: "loss-5%", loss: 0.05},
		{name: "dup-5%", dup: 0.05},
		{name: "reorder<w", reorder: 0.3, reorderIntervals: 32},
		{name: "reorder>w", reorder: 0.3, reorderIntervals: 256},
		{name: "all-mild", loss: 0.02, dup: 0.02, reorder: 0.2, reorderIntervals: 16},
	} {
		fc := base
		fc.Link = netsim.LinkConfig{
			Delay:        fc.SendInterval * 10,
			LossProb:     row.loss,
			DupProb:      row.dup,
			ReorderProb:  row.reorder,
			ReorderDelay: time.Duration(row.reorderIntervals) * fc.SendInterval,
		}
		f, err := NewFlow(fc)
		if err != nil {
			return nil, err
		}

		perSeq := make(map[uint64]int)
		dupes := 0
		f.VerdictHook = func(seq uint64, _ bool, v core.Verdict) {
			if v.Delivered() {
				perSeq[seq]++
				if perSeq[seq] > 1 {
					dupes++
				}
			}
		}
		f.AtSendCount(messages, f.StopTraffic)
		f.StartTraffic(time.Hour)
		f.Run(time.Duration(messages)*fc.SendInterval*4 + time.Second)

		sent := f.Sent()
		delivered := f.Matrix.FreshDelivered()
		// Fresh discards are window-caused losses: stale verdicts from
		// excessive reorder. (Network duplicates are fresh copies too;
		// subtract their legitimate duplicate-discards.)
		st := f.Link.Stats()
		freshDiscards := f.Matrix.FreshDiscarded()
		windowDiscards := int64(freshDiscards) - int64(st.Duplicated)
		if windowDiscards < 0 {
			windowDiscards = 0
		}
		t.AddRow(row.name, fmt.Sprint(sent), fmt.Sprint(delivered),
			fmt.Sprint(dupes), fmt.Sprint(windowDiscards), fmt.Sprint(st.Lost))
	}
	return t, nil
}
