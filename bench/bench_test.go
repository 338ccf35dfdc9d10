package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, shrunk, for a second untraced and a second
// traced, and checks that each metric and workload BENCHMARK.json names is
// emitted with its unit and that the correctness gate passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traffic for several seconds")
	}
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json names %d+%d metrics, the harness declares %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, wl := range bf.Workloads {
		sp, ok := specByName(wl.Name)
		if !ok {
			t.Errorf("workload %q is in BENCHMARK.json but not in the harness", wl.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{spec: sp.smoke(), seed: 7, seconds: 0.6, traced: traced,
				dataDir: t.TempDir(), allowTmpfs: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: gate breached: %v", wl.Name, traced, res.Breaches)
			}
			// Loss is not asserted: shrunk to 64 SAs a flow outruns its SAVEs
			// now and then and the receiver discards at its horizon, which is
			// the protocol working, not the gate failing.
			if res.Attempted == 0 {
				t.Errorf("%s traced=%v: nothing attempted", wl.Name, traced)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: %s not emitted", wl.Name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, name, got.Unit, unit)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestAgree checks the three verdicts on made-up result sets.
func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput, wake []float64) string {
		path := filepath.Join(dir, name)
		for i := range goodput {
			r := result{Workload: "inline_fast", Metrics: map[string]metric{
				"goodput_vs_ref": {goodput[i], "pkt/ref"}, "wake_vs_ref_p50": {wake[i], "ratio"}, "setup_s": {1 + float64(i)/100, "s"}}}
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102}
	a := write("a.jsonl", steady, steady)
	b := write("b.jsonl",
		[]float64{70, 71, 69, 70, 72},    // a third slower: regressed
		[]float64{60, 140, 100, 180, 20}) // too scattered to tell: unresolved
	var out bytes.Buffer
	regressed, err := agreeFiles(&out, filepath.Join("..", "BENCHMARK.json"), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 30% goodput loss was not reported as a regression")
	}
	for _, want := range []string{"goodput_vs_ref", "REGRESSED", "unresolved", "resolved 1,"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-agree output lacks %q:\n%s", want, out.String())
		}
	}
}
