package experiments

import (
	"strings"
	"testing"

	"antireplay/internal/testbed"
)

// TestRekeyRolloverAcceptance is the acceptance gate for the rekey
// subsystem: under seeded IKE and data loss (including the >= 5% point)
// with a receiver reset injected mid-exchange, every tunnel's rollover
// converges with zero false rejections of in-flight old-SPI packets, zero
// replay acceptances, and every retired generation's journal cells erased.
func TestRekeyRolloverAcceptance(t *testing.T) {
	tab, err := RekeyRollover(PairConfig{Seed: 1, LossProbs: []float64{0.05, 0.25}, Tunnels: 4, PacketsPerPhase: 200,
		Bed: testbed.Config{K: 25, W: 64, Sync: true}})
	if err != nil {
		t.Fatalf("RekeyRollover: %v", err)
	}
	t.Logf("\n%s", tab)

	col := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	for _, row := range tab.Rows {
		loss := row[col("ike_loss")]
		if got := row[col("rollovers")]; got != "4" {
			t.Errorf("loss %s: rollovers = %s, want 4 (one per tunnel)", loss, got)
		}
		if got := row[col("false_rejects")]; got != "0" {
			t.Errorf("loss %s: false_rejects = %s, want 0", loss, got)
		}
		if got := row[col("replay_accepts")]; got != "0" {
			t.Errorf("loss %s: replay_accepts = %s, want 0", loss, got)
		}
		inflight := row[col("inflight_ok")]
		if parts := strings.Split(inflight, "/"); len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("loss %s: inflight_ok = %s, want all delivered", loss, inflight)
		}
		erased := row[col("cells_erased")]
		if parts := strings.Split(erased, "/"); len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("loss %s: cells_erased = %s, want all erased", loss, erased)
		}
	}
}
