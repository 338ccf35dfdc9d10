// Command benchtables regenerates every figure and table of the paper's
// analysis (use -list for the experiment index) and writes them as
// aligned text and CSV.
//
// Usage:
//
//	benchtables [-only id[,id...]] [-fast] [-outdir dir] [-json file]
//
// Without -outdir the tables print to stdout only. With -json the run also
// writes every table as structured rows. The tables are evidence (bounds
// held, replays rejected), not timing: what a packet or a save costs is
// bench/'s job (bash bench/run.sh), which reports medians with a spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"antireplay/internal/experiments"
	"antireplay/internal/telemetry"
)

// jsonResults is the -json output shape: the tables verbatim.
type jsonResults struct {
	GeneratedBy string      `json:"generated_by"`
	Fast        bool        `json:"fast"`
	Experiments []jsonTable `json:"experiments"`
}

type jsonTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	fast := flag.Bool("fast", false, "cheaper parameterizations (same shapes)")
	outdir := flag.String("outdir", "", "also write <id>.txt and <id>.csv here")
	jsonPath := flag.String("json", "", "write the tables as structured rows here")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metrics := flag.String("metrics", "", "serve process metrics and pprof on this address for the run's duration (e.g. :9100; :0 picks a free port)")
	flag.Parse()

	if *metrics != "" {
		// Long experiment sweeps are exactly when an operator wants to
		// profile: the server carries the Go runtime gauges on /metrics
		// plus the full pprof surface.
		reg := telemetry.NewRegistry()
		reg.RegisterCollector("apn_process", telemetry.Process)
		srv := telemetry.NewServer(telemetry.ServerConfig{Registry: reg})
		if err := srv.ListenAndServe(*metrics); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close() //nolint:errcheck // shutdown on exit
		fmt.Printf("metrics: listening on %s\n", srv.Addr())
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-14s %s\n", r.ID, r.Paper)
		}
		return
	}

	runners := experiments.All()
	if *only != "" {
		var sel []experiments.Runner
		for _, id := range strings.Split(*only, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			sel = append(sel, r)
		}
		runners = sel
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
	}

	failed := false
	var tables []*experiments.Table
	for _, r := range runners {
		fmt.Printf("# %s — %s\n", r.ID, r.Paper)
		tbl, err := r.Run(*fast)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", r.ID, err)
			failed = true
			continue
		}
		tables = append(tables, tbl)
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", r.ID, err)
			failed = true
		}
		fmt.Println()
		if *outdir != "" {
			if err := writeTable(tbl, *outdir); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", r.ID, err)
				failed = true
			}
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *fast, tables); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: json: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeJSON emits every table of the run as structured rows.
func writeJSON(path string, fast bool, tables []*experiments.Table) error {
	out := jsonResults{GeneratedBy: "benchtables", Fast: fast}
	for _, tbl := range tables {
		out.Experiments = append(out.Experiments, jsonTable{
			ID: tbl.ID, Title: tbl.Title, Columns: tbl.Columns, Rows: tbl.Rows,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeTable(tbl *experiments.Table, dir string) error {
	txt, err := os.Create(filepath.Join(dir, tbl.ID+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := tbl.Render(txt); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, tbl.ID+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	return tbl.RenderCSV(csv)
}
