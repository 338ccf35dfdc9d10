package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestFailoverAcceptance runs the HA failover experiment and asserts the
// acceptance criteria on its cells. The experiment itself errors on the
// hard invariants (a wake edge below the crash edge, a false-reject count
// beyond the wake window, an unfenced deposed journal, a counter
// regression); the assertions here pin the reported numbers so a silently
// weakened experiment cannot pass either.
func TestFailoverAcceptance(t *testing.T) {
	cfg := DefaultFailoverConfig()
	cfg.Tunnels = 2
	cfg.PacketsPerPhase = 80
	cfg.LossProbs = []float64{0, 0.25}

	tbl, err := Failover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := make(map[string]int, len(tbl.Columns))
	for i, c := range tbl.Columns {
		col[c] = i
	}
	cell := func(row []string, name string) string {
		i, ok := col[name]
		if !ok {
			t.Fatalf("column %q missing from %v", name, tbl.Columns)
		}
		return row[i]
	}
	num := func(row []string, name string) int {
		s := cell(row, name)
		if i := strings.IndexByte(s, ' '); i >= 0 {
			s = s[:i] // "60 (pre 0)" -> "60"
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("column %q cell %q: %v", name, cell(row, name), err)
		}
		return n
	}

	if len(tbl.Rows) != len(cfg.LossProbs) {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), len(cfg.LossProbs))
	}
	for _, row := range tbl.Rows {
		loss := cell(row, "loss")
		if got := num(row, "replay_accepts"); got != 0 {
			t.Errorf("loss %s: %d replay acceptances across two failovers, want 0", loss, got)
		}
		if got := num(row, "regressions"); got != 0 {
			t.Errorf("loss %s: %d counter regressions after failback, want 0", loss, got)
		}
		// The post-failover sacrifice must fit the wake window, and the
		// window itself must be bounded by the reported replication lag
		// plus the per-SA leap slack — the gauge-bounds-the-window claim.
		fr, wb := num(row, "false_rejects"), num(row, "window_bound")
		if fr > wb {
			t.Errorf("loss %s: false_rejects %d > window_bound %d", loss, fr, wb)
		}
		leap := int(2 * cfg.Bed.K)
		if lagBound := num(row, "lag_values") + cfg.Tunnels*(leap+int(2*cfg.Bed.K)); wb > lagBound {
			t.Errorf("loss %s: window_bound %d exceeds lag-derived bound %d", loss, wb, lagBound)
		}
		// Split brain: the deposed primary stalls inside its horizon.
		if ds := num(row, "deposed_seals"); ds > cfg.Tunnels*leap {
			t.Errorf("loss %s: deposed primary sealed %d packets, beyond %d", loss, ds, cfg.Tunnels*leap)
		}
		if got := cell(row, "epochs"); got != "1->2" {
			t.Errorf("loss %s: epochs %q, want \"1->2\"", loss, got)
		}
		if num(row, "delivered") == 0 {
			t.Errorf("loss %s: nothing delivered", loss)
		}
	}
}
