// Command bench is the repository's end-to-end benchmark: two gateways built
// through the public constructors, each over its own laned medium with real
// fsync, driven from this one process. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// progress is bumped by every phase as it moves; the watchdog reads it.
var progress atomic.Uint64

const (
	stallLimit = 10 * time.Second
	allTarget  = 150 * time.Second // what a whole -workload all run aims to fit
)

// watchdog ends the process, with every goroutine's stack, when nothing has
// moved for stallLimit: a hang then costs seconds, not the caller's timeout.
func watchdog() {
	last, since := progress.Load(), time.Now()
	for range time.Tick(time.Second) {
		if now := progress.Load(); now != last {
			last, since = now, time.Now()
			continue
		}
		if time.Since(since) >= stallLimit {
			fmt.Fprintf(os.Stderr, "bench: no progress for %v; goroutines:\n", stallLimit)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) //nolint:errcheck // exiting
			os.Exit(3)
		}
	}
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory when run through bench/run.sh, its parent when run from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..; run from the repository root")
}

func main() {
	workload := flag.String("workload", "all", "inline_fast, save_heavy, udp_pipe, reset_storm, or all")
	seed := flag.Int64("seed", 1, "fixes keys, SPIs, flow visit order and payload bytes")
	seconds := flag.Float64("seconds", 6, "how long the steady phase measures; BENCHMARK.json's run_seconds is 10")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "append the full result, one JSON line a run, to this file")
	agree := flag.Bool("agree", false, "compare two result files: bench -agree a.jsonl b.jsonl")
	allowTmpfs := flag.Bool("allow-tmpfs", false, "measure even though the lane directory is on tmpfs, where fsync is free")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *agree {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -agree a.jsonl b.jsonl"))
		}
		regressed, err := agreeFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	go watchdog()
	outDir := filepath.Join(root, "bench", "out")
	run := func(sp spec, traced bool) *result {
		res, err := runWorkload(runConfig{
			spec: sp, seed: *seed, seconds: *seconds, traced: traced, allowTmpfs: *allowTmpfs,
			dataDir: filepath.Join(outDir, fmt.Sprintf("data-%s-%d", sp.name, os.Getpid())),
			outDir:  outDir,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		res.print(os.Stdout)
		if *out != "" {
			if err := res.appendTo(*out); err != nil {
				fatal(err)
			}
		}
		return res
	}

	if *workload != "all" {
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res := run(sp, *trace != 0)
		fmt.Println(res.lastLine())
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// Every workload, untraced then traced; the summary line is for people.
	began := time.Now()
	correct := true
	summary := map[string]map[string]metric{}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res := run(sp, traced)
			correct = correct && res.Correct
			if summary[sp.name] == nil {
				summary[sp.name] = map[string]metric{}
			}
			for name, m := range res.Metrics {
				summary[sp.name][name] = m
			}
		}
	}
	if took := time.Since(began); took > allTarget {
		fmt.Printf("\nbench: -workload all took %.0f s, over its %.0f s target; pass a smaller -seconds\n", took.Seconds(), allTarget.Seconds())
	}
	b, err := json.Marshal(map[string]any{"correct": correct, "workloads": summary})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
