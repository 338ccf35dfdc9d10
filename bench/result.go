package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
)

// metricDef names one metric the benchmark emits. The lists below are the
// single source of the names in BENCHMARK.json; bench_test.go keeps the two
// in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"goodput_vs_ref", "pkt/ref"},
	{"cpu_vs_ref_per_pkt", "ref/pkt"},
	{"delivered_frac", "frac"},
	{"fsyncs_per_kpkt", "1/kpkt"},
	{"wake_vs_ref_p50", "ratio"},
	{"sacrificed_per_wake_mean", "count"},
	{"cold_start_vs_ref", "ratio"},
	{"heap_kib_per_sa", "KiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"ipsec.spd_lookup_ns", "ns"},
	{"ipsec.seal_ns", "ns"},
	{"ipsec.sad_lookup_ns", "ns"},
	{"ipsec.open_ns", "ns"},
	{"ipsec.seal_ns_1400", "ns"},
	{"ipsec.open_ns_1400", "ns"},
	{"ipsec.install_us_per_sa", "us"},
	{"ipsec.setup_clock_s", "s"},
	{"ipsec.wake_ms_p50", "ms"},
	{"ipsec.wake_cpu_ms", "ms"},
	{"ipsec.cold_start_s", "s"},
	{"ipsec.cold_start_cpu_ms", "ms"},
	{"ipsec.reset_all_ms", "ms"},
	{"ipsec.wake_all_tx_ms", "ms"},
	{"ipsec.wake_all_rx_ms", "ms"},
	{"core.next_ns", "ns"},
	{"core.admit_ns", "ns"},
	{"core.seal_backpressure", "count"},
	{"core.horizon_discards", "count"},
	{"core.sacrificed_per_wake_max", "count"},
	{"core.replays_injected", "count"},
	{"core.replays_accepted", "count"},
	{"seqwin.admit_ns", "ns"},
	{"store.fsyncs", "count"},
	{"store.appends", "count"},
	{"store.saves_per_fsync", "ratio"},
	{"store.log_bytes_per_save", "B"},
	{"store.compactions", "count"},
	{"store.probe_save_us_p50", "us"},
	{"store.probe_save_us_p99", "us"},
	{"store.wake_fsyncs", "count"},
	{"store.reopen_ms", "ms"},
	{"store.fsync_ref_ms", "ms"},
	{"wire.send_ns", "ns"},
	{"wire.recv_wait_ns", "ns"},
	{"wire.inflight_us_p50", "us"},
	{"wire.inflight_us_p99", "us"},
	{"wire.rx_drops", "count"},
	{"wire.unrouted", "count"},
	{"proc.goodput_pps", "1/s"},
	{"proc.cpu_us_per_pkt", "us"},
	{"proc.host_ref_ns", "ns"},
	{"proc.allocs_per_pkt", "count"},
	{"proc.alloc_bytes_per_pkt", "B"},
	{"proc.gc_cpu_frac", "frac"},
	{"proc.rss_mb_peak", "MB"},
	{"budget.sum_ns", "ns"},
	{"budget.e2e_ns", "ns"},
	{"budget.remainder_ns", "ns"},
	{"trace.overhead_frac", "frac"},
	{"paper.k_required", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spread is the sample count and quartiles behind a metric that is the
// median of several samples taken inside one run.
type spread struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// hostFigures are a run's timings as the clocks read them. They say as much
// about the host's minute as about the code, which is why the end-to-end
// metrics are ratios; they are printed for orientation and bounded by nothing.
type hostFigures struct {
	GoodputPPS  float64 `json:"goodput_pps"`
	CPUUsPerPkt float64 `json:"cpu_us_per_pkt"`
	RefNs       float64 `json:"host_ref_ns"` // one hostRef operation
	SetupS      float64 `json:"setup_clock_s"`
	WakeMs      float64 `json:"wake_ms_p50"`
	ColdStartS  float64 `json:"cold_start_s"`
	AppendMs    float64 `json:"fsync_ref_ms"` // one diskRef append
}

// stageRow is one row of the traced run's layer budget.
type stageRow struct {
	Stage  string  `json:"stage"`
	Side   string  `json:"side"` // the load goroutine it runs on: "tx", "rx", or "-" when it is not work on either
	How    string  `json:"how"`  // "span" (timed on the live path) or "isolated"
	N      int     `json:"n"`
	Median float64 `json:"median_ns"`
	Self   float64 `json:"self_ns"`
}

// result is everything one run of one workload produced. The last line of
// standard output carries only Correct, Attempted, Failed and Metrics.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	SAs       int               `json:"sa_pairs"`
	K         uint64            `json:"k"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Spreads   map[string]spread `json:"spreads,omitempty"`
	Host      hostFigures       `json:"host_figures"`
	Stages    []stageRow        `json:"stages,omitempty"`
	// Raw holds the samples behind the recovery and set-up metrics, in the
	// order taken, so that another way of summarizing them can be tried
	// without running again.
	Raw         map[string][]float64 `json:"raw_samples,omitempty"`
	Breaches    []string             `json:"breaches,omitempty"`
	WallSeconds float64              `json:"wall_seconds"`
	Provenance  provenance           `json:"provenance"`
}

// unitOf maps every declared metric to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// set records a metric, and its within-run samples when it is a median.
func (r *result) set(name string, v float64, samples ...float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if len(samples) > 1 {
		q1, med, q3 := quartiles(samples)
		r.Spreads[name] = spread{N: len(samples), Q1: q1, Median: med, Q3: q3}
	}
}

// lastLine is the contract's result object.
func (r *result) lastLine() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	defs := endToEnd
	if r.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s  (%s, seed %d, %d SA pairs, K=%d, %.0f s steady, %.1f s wall)\n",
		r.Workload, mode, r.Seed, r.SAs, r.K, r.Seconds, r.WallSeconds)
	fmt.Fprintf(w, "   attempted %d  failed %d  loss_frac %.6f  correct %v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	h := r.Host
	fmt.Fprintf(w, "   on this host's clocks: %.0f pkt/s, %.3f us CPU/pkt, set-up %.3f s, wake %.1f ms, cold start %.3f s; units: %.0f ns a reference op, %.3f ms a reference fsync\n",
		h.GoodputPPS, h.CPUUsPerPkt, h.SetupS, h.WakeMs, h.ColdStartS, h.RefNs, h.AppendMs)
	for _, b := range r.Breaches {
		fmt.Fprintf(w, "   GATE BREACH: %s\n", b)
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "   %-30s %16.6g %-7s", d.name, m.Value, m.Unit)
		if s, ok := r.Spreads[d.name]; ok {
			fmt.Fprintf(w, " n=%-5d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(w, "   layer budget, ns a packet (self = median minus its children):\n")
		for _, s := range r.Stages {
			fmt.Fprintf(w, "     %-22s %-2s %-9s n=%-7d median %9.1f  self %9.1f\n", s.Stage, s.Side, s.How, s.N, s.Median, s.Self)
		}
		need := r.Metrics["paper.k_required"].Value
		fmt.Fprintf(w, "     sum of self times %.1f   end to end %.1f   remainder %.1f\n",
			r.Metrics["budget.sum_ns"].Value, r.Metrics["budget.e2e_ns"].Value, r.Metrics["budget.remainder_ns"].Value)
		fmt.Fprintf(w, "     configured K %d; K required if one SA took the whole rate %.0f, at one SA's share of it %.0f\n",
			r.K, need, math.Ceil(need/float64(r.SAs)))
	}
}

// appendTo adds the result as one JSON line to path.
func (r *result) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads a file of JSON lines written by appendTo.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns, so
// that spreads computed here match the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// provenance says where and from what a result came.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	FSType     string `json:"fs_type"` // of the lane directory
}

func stamp(laneDir string) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		FSType:     fsType(laneDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			p.Commit = rev + dirty
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}
