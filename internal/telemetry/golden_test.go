package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden pins the exact exposition bytes for a representative
// registry — both kinds, labels, escaping, and a family fed by two
// collectors — so a formatting regression (family ordering, TYPE headers,
// label escaping, value rendering) diffs loudly instead of breaking
// scrapers quietly. Regenerate with: go test ./internal/telemetry
// -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	r := NewRegistry()

	r.RegisterCollector("apn_gateway", CollectorFunc(func(emit Emit) {
		emit("sealed_total", KindCounter, 12345)
	}))
	// One family, two collectors: the lanes of one medium registered apart.
	for lane, appends := range []float64{100, 200} {
		lane, appends := lane, appends
		r.RegisterCollector("apn_journal", CollectorFunc(func(emit Emit) {
			emit("appends_total", KindCounter, appends, Label{"lane", strconv.Itoa(lane)})
		}))
	}
	r.RegisterCollector("apn_pool", CollectorFunc(func(emit Emit) {
		emit("queue_depth", KindGauge, 4)
	}))
	r.RegisterCollector("apn_cluster", CollectorFunc(func(emit Emit) {
		emit("lag_records", KindGauge, 17)
		emit("lag_ratio", KindGauge, 0.25)
		emit("applied_total", KindCounter, 999)
	}))
	r.RegisterCollector("apn_label", CollectorFunc(func(emit Emit) {
		emit("escape", KindGauge, 1, Label{"path", `C:\logs "a"` + "\nb"})
	}))
	r.RegisterCollector("apn_link", CollectorFunc(func(emit Emit) {
		emit("tx_packets_total", KindCounter, 42)
		emit("rx_drops_total", KindCounter, 7)
		emit("mtu_bytes", KindGauge, 1452)
	}))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	if errs := r.Lint(); len(errs) != 0 {
		t.Errorf("golden registry should lint clean: %v", errs)
	}
}
