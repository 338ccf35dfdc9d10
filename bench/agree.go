package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json that -agree and the smoke test
// read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// valuesOf collects one metric's value from every untraced run of a workload.
func valuesOf(rs []result, workload, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// agreeFiles compares result set b against result set a, one row for each
// pairing of end-to-end metric and workload, by the rule the benchmark's
// contract fixes:
//
//   - spread is the distance between the first and third quartile of a set's
//     runs as a share of their median, the larger of the two sets';
//   - worse is how far b's median is on the wrong side of a's, as a share of
//     a's;
//   - a row whose spread exceeds the bound is unresolved (the runs cannot
//     show a change of the size the bound forbids), unless every run of b
//     reads better than every run of a;
//   - otherwise it has regressed when worse exceeds the bound, and is
//     resolved when it does not.
//
// It reports whether any row regressed.
func agreeFiles(w io.Writer, benchmarkJSON, pathA, pathB string) (regressed bool, err error) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	stampOf := func(rs []result) string {
		if len(rs) == 0 {
			return "no runs"
		}
		p := rs[0].Provenance
		return fmt.Sprintf("%d runs, commit %s, %s, %s, %d of %d CPUs, kernel %s, %s",
			len(rs), p.Commit, p.GoVersion, p.CPUModel, p.GOMAXPROCS, p.NProc, p.Kernel, p.FSType)
	}
	fmt.Fprintf(w, "a: %s (%s)\nb: %s (%s)\n", pathA, stampOf(a), pathB, stampOf(b))
	fmt.Fprintf(w, "%-12s %-25s %3s %3s %13s %13s %8s %8s %6s  %s\n",
		"workload", "metric", "nA", "nB", "median A", "median B", "spread", "worse", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-25s %3d %3d %61s\n", wl.Name, m.Name, len(va), len(vb), "missing")
				counts["missing"]++
				continue
			}
			q1a, medA, q3a := quartiles(va)
			q1b, medB, q3b := quartiles(vb)
			spread := max((q3a-q1a)/medA, (q3b-q1b)/medB)
			worse := (medB - medA) / medA
			allBetter := slices.Min(vb) > slices.Max(va)
			if m.Better == "lower" {
				allBetter = slices.Max(vb) < slices.Min(va)
			} else {
				worse = -worse
			}
			verdict := "resolved"
			switch {
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-12s %-25s %3d %3d %13.6g %13.6g %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), medA, medB, 100*spread, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "resolved %d, unresolved %d, regressed %d, missing %d\n",
		counts["resolved"], counts["unresolved"], counts["REGRESSED"], counts["missing"])
	return regressed, nil
}
