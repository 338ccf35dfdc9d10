package experiments

import (
	"fmt"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/netsim"
)

// DeliveryConfig parameterizes the §2 w-Delivery / Discrimination check.
type DeliveryConfig struct {
	// Messages is the number of fresh messages per row.
	Messages uint64
	// W is the window width.
	W int
	// Rows is the sweep of link impairments.
	Rows []DeliveryRow
	// Seed drives the simulation.
	Seed int64
}

// DeliveryRow is one impairment setting.
type DeliveryRow struct {
	Name    string
	Loss    float64
	Dup     float64
	Reorder float64
	// ReorderDelay in send intervals; it determines the worst reorder
	// degree the link can induce.
	ReorderDelayIntervals int
}

// DefaultDeliveryConfig sweeps clean, lossy, duplicating, mildly reordering
// (degree < w) and violently reordering (degree can exceed w) links.
func DefaultDeliveryConfig() DeliveryConfig {
	return DeliveryConfig{
		Messages: 10000,
		W:        64,
		Seed:     1,
		Rows: []DeliveryRow{
			{Name: "clean"},
			{Name: "loss-5%", Loss: 0.05},
			{Name: "dup-5%", Dup: 0.05},
			{Name: "reorder<w", Reorder: 0.3, ReorderDelayIntervals: 32},
			{Name: "reorder>w", Reorder: 0.3, ReorderDelayIntervals: 256},
			{Name: "all-mild", Loss: 0.02, Dup: 0.02, Reorder: 0.2, ReorderDelayIntervals: 16},
		},
	}
}

// Delivery verifies the §2 conditions on the full stack: Discrimination (no
// sequence number is ever delivered twice, even under network duplication)
// and w-Delivery (messages neither lost nor reordered by degree >= w are
// delivered — so the only window-caused fresh discards appear when the
// reorder delay can exceed w send intervals).
func Delivery(cfg DeliveryConfig) (*Table, error) {
	t := &Table{
		ID:    "delivery",
		Title: "w-Delivery and Discrimination under link impairments (§2)",
		Note: fmt.Sprintf("w=%d. Expect: dupes_delivered=0 in every row; window_discards=0 unless "+
			"the reorder delay exceeds w send intervals; delivered ~= sent*(1-loss).", cfg.W),
		Columns: []string{"link", "sent", "delivered", "dupes_delivered",
			"window_discards", "net_lost"},
	}
	for _, row := range cfg.Rows {
		fc := DefaultFlowConfig(cfg.Seed)
		fc.W = cfg.W
		fc.Link = netsim.LinkConfig{
			Delay:        fc.SendInterval * 10,
			LossProb:     row.Loss,
			DupProb:      row.Dup,
			ReorderProb:  row.Reorder,
			ReorderDelay: time.Duration(row.ReorderDelayIntervals) * fc.SendInterval,
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
		f.AtSendCount(cfg.Messages, f.StopTraffic)
		f.StartTraffic(time.Hour)
		f.Run(time.Duration(cfg.Messages)*fc.SendInterval*4 + time.Second)

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
		t.AddRow(row.Name, fmt.Sprint(sent), fmt.Sprint(delivered),
			fmt.Sprint(dupes), fmt.Sprint(windowDiscards), fmt.Sprint(st.Lost))
	}
	return t, nil
}
