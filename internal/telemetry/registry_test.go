package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryLabels(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("apn_lane", CollectorFunc(func(emit Emit) {
		emit("appends_total", KindCounter, 1, Label{"lane", "0"})
		emit("appends_total", KindCounter, 2, Label{"lane", "1"})
	}))
	out := scrape(t, r)
	if !strings.Contains(out, `apn_lane_appends_total{lane="0"} 1`) ||
		!strings.Contains(out, `apn_lane_appends_total{lane="1"} 2`) {
		t.Errorf("labelled series missing:\n%s", out)
	}
	// One TYPE header for the family, not one per series.
	if n := strings.Count(out, "# TYPE apn_lane_appends_total"); n != 1 {
		t.Errorf("family header written %d times", n)
	}
}

func TestRegistryFuncsAndCollectors(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("apn_link", CollectorFunc(func(emit Emit) {
		emit("tx_packets_total", KindCounter, 9)
		emit("rx_drops_total", KindCounter, 1, Label{"dir", "rx"})
		emit("lag_ratio", KindGauge, 0.25)
	}))
	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE apn_link_tx_packets_total counter",
		"apn_link_tx_packets_total 9",
		`apn_link_rx_drops_total{dir="rx"} 1`,
		"# TYPE apn_link_lag_ratio gauge",
		"apn_link_lag_ratio 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	none := CollectorFunc(func(Emit) {})
	mustPanic(t, "uppercase prefix", func() { r.RegisterCollector("APN_bad", none) })
	mustPanic(t, "empty prefix", func() { r.RegisterCollector("", none) })
	mustPanic(t, "reserved suffix", func() { r.RegisterCollector("apn_bad_bucket", none) })
	mustPanic(t, "nil collector", func() { r.RegisterCollector("apn_ok", nil) })

	// What a collector emits is Lint's to reject, one error per case.
	for _, c := range []struct {
		what string
		emit func(emit Emit)
	}{
		{"counter without _total", func(emit Emit) { emit("bad", KindCounter, 1) }},
		{"gauge with _total", func(emit Emit) { emit("bad_total", KindGauge, 1) }},
		{"uppercase name", func(emit Emit) { emit("Bad_total", KindCounter, 1) }},
		{"reserved suffix", func(emit Emit) { emit("bad_sum", KindGauge, 1) }},
		{"unknown kind", func(emit Emit) { emit("bad", Kind(9), 1) }},
		{"reserved label", func(emit Emit) { emit("x_total", KindCounter, 1, Label{"le", "1"}) }},
		{"bad label key", func(emit Emit) { emit("y_total", KindCounter, 1, Label{"Lane", "1"}) }},
		{"duplicate label key", func(emit Emit) { emit("z_total", KindCounter, 1, Label{"lane", "0"}, Label{"lane", "1"}) }},
		{"duplicate series", func(emit Emit) {
			emit("dup_total", KindCounter, 1, Label{"lane", "0"})
			emit("dup_total", KindCounter, 2, Label{"lane", "0"})
		}},
		{"kind conflict", func(emit Emit) {
			emit("dup_total", KindCounter, 1, Label{"lane", "0"})
			emit("dup_total", KindGauge, 1, Label{"lane", "1"})
		}},
	} {
		r := NewRegistry()
		r.RegisterCollector("apn", CollectorFunc(c.emit))
		if errs := r.Lint(); len(errs) != 1 {
			t.Errorf("%s: want 1 lint error, got %v", c.what, errs)
		}
	}
}

func TestRegistryLint(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("apn_good", CollectorFunc(func(emit Emit) { emit("events_total", KindCounter, 1) }))
	r.RegisterCollector("apn_src", CollectorFunc(func(emit Emit) {
		emit("bad_gauge_total", KindGauge, 1) // gauge with _total
		emit("dup_total", KindCounter, 1)
		emit("dup_total", KindCounter, 2) // duplicate series
	}))
	// A second collector feeding the first one's family with another kind.
	r.RegisterCollector("apn_good", CollectorFunc(func(emit Emit) { emit("events_total", KindGauge, 1, Label{"lane", "1"}) }))
	errs := r.Lint()
	if len(errs) != 3 {
		t.Fatalf("want 3 lint errors, got %d: %v", len(errs), errs)
	}
}

func TestRegistryConcurrentScrapeAndAdd(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	r.RegisterCollector("apn_spin", CollectorFunc(func(emit Emit) {
		emit("events_total", KindCounter, float64(c.Load()))
	}))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Add(1)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		scrape(t, r)
		// Registrations race scrapes too.
		r.RegisterCollector("apn_late", CollectorFunc(func(Emit) {}))
	}
	close(stop)
	wg.Wait()
}
