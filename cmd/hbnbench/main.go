// Command hbnbench runs the reproduction experiment suite (E1–E11, see
// DESIGN.md) and prints the result tables: aligned text for the terminal,
// the Markdown recorded in EXPERIMENTS.md, or JSON for benchmark
// trajectories (the BENCH_*.json files).
//
// Usage:
//
//	hbnbench -experiment all            # run everything
//	hbnbench -experiment E5 -quick      # one experiment, small sweeps
//	hbnbench -experiment all -markdown  # EXPERIMENTS.md body on stdout
//	hbnbench -experiment all -json      # machine-readable, for BENCH_*.json
//	hbnbench -experiment none -ratio    # competitive ratio vs the clairvoyant static optimum
//	hbnbench -experiment none -ratio -ratioguard BENCH_pr8.json  # fail on >10% ratio regression
//	hbnbench -experiment none -daemon 127.0.0.1:7070    # drive a live hbnd daemon over the wire, verify its ledger
//	hbnbench -experiment none -daemon ... -devents 0    # stats + ledger check only (post-restart verification)
//	hbnbench ... -cpuprofile cpu.pprof  # attach pprof evidence to perf PRs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hbn/internal/experiments"
	"hbn/internal/stats"
)

// jsonResult is one experiment's outcome in -json mode.
type jsonResult struct {
	ID        string       `json:"id"`
	Title     string       `json:"title"`
	Claim     string       `json:"claim"`
	OK        bool         `json:"ok"`
	Verdict   string       `json:"verdict"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Table     *stats.Table `json:"table"`
}

type jsonOutput struct {
	Timestamp  string           `json:"timestamp"`
	Seed       int64            `json:"seed"`
	Quick      bool             `json:"quick"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Results    []jsonResult     `json:"results"`
	Ratio      []jsonRatio      `json:"ratio,omitempty"`
	Daemon     *jsonDaemonBench `json:"daemon,omitempty"`
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (E1..E11), 'all' or 'none'")
		quick      = flag.Bool("quick", false, "shrink sweep sizes")
		markdown   = flag.Bool("markdown", false, "emit Markdown instead of aligned text")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of aligned text")
		seed       = flag.Int64("seed", 2000, "base random seed")
		ratioB     = flag.Bool("ratio", false, "run the competitive-ratio benchmark (online congestion over the clairvoyant static optimum, pre-PR-8 flat strategy vs bandwidth-aware budgets with drift-triggered epochs)")
		ratioGuard = flag.String("ratioguard", "", "baseline BENCH json to compare -ratio post_ratio values against; exit nonzero if any scenario regresses by more than 10% (implies -ratio)")
		daemonAddr = flag.String("daemon", "", "address of a running hbnd daemon: drive it over the wire and verify the conservation ledger externally (see cmd/hbnd)")
		dClients   = flag.Int("dclients", 4, "-daemon: concurrent load clients")
		dBatch     = flag.Int("dbatch", 64, "-daemon: events per batch")
		dEvents    = flag.Int64("devents", 10_000, "-daemon: total offered events across all clients; 0 reads stats and checks the ledger without sending traffic (the restart-verify invocation)")
		dBudget    = flag.Duration("dbudget", 0, "-daemon: per-batch deadline budget (0 = none)")
		dSwitches  = flag.Int("dswitches", 4, "-daemon: the daemon's -switches value (leaf IDs are derived from its topology)")
		dProcs     = flag.Int("dprocs", 4, "-daemon: the daemon's -procs value")
		dObjects   = flag.Int("dobjects", 1024, "-daemon: the daemon's -objects value")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	)
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	ids := []string{*experiment}
	switch *experiment {
	case "all":
		ids = experiments.IDs()
	case "none":
		ids = nil
	}
	var (
		results []*experiments.Result
		timed   []jsonResult
	)
	for _, id := range ids {
		fn, ok := experiments.ByID(id)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (want E1..E11 or all)", id))
		}
		start := time.Now()
		r, err := fn(cfg)
		if err != nil {
			fatal(err)
		}
		results = append(results, r)
		timed = append(timed, jsonResult{
			ID: r.ID, Title: r.Title, Claim: r.Claim, OK: r.OK, Verdict: r.Verdict,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Table:     r.Table,
		})
	}

	var ratios []jsonRatio
	if *ratioB || *ratioGuard != "" {
		var err error
		ratios, err = runRatioBench(*quick, *seed)
		if err != nil {
			fatal(err)
		}
	}
	var daemonRes *jsonDaemonBench
	if *daemonAddr != "" {
		var err error
		daemonRes, err = runDaemonBench(daemonBenchOptions{
			Addr:     *daemonAddr,
			Clients:  *dClients,
			Batch:    *dBatch,
			Events:   *dEvents,
			Budget:   *dBudget,
			Seed:     *seed,
			Switches: *dSwitches,
			Procs:    *dProcs,
			Objects:  *dObjects,
		})
		if err != nil {
			if daemonRes != nil && !*jsonOut {
				printDaemonBench(daemonRes)
			}
			fatal(err)
		}
	}

	// The measured work is done: flush profiles before emitting output so
	// the profile covers exactly the benchmark/experiment bodies.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // material allocations only, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOutput{
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			Seed:       *seed,
			Quick:      *quick,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Results:    timed,
			Ratio:      ratios,
			Daemon:     daemonRes,
		}); err != nil {
			fatal(err)
		}
	case *markdown:
		if err := experiments.WriteMarkdown(os.Stdout, results); err != nil {
			fatal(err)
		}
	default:
		for _, r := range results {
			fmt.Printf("=== %s — %s\n", r.ID, r.Title)
			fmt.Printf("claim: %s\n\n", r.Claim)
			fmt.Print(r.Table.String())
			fmt.Printf("\n%s\n\n", r.Verdict)
		}
		if len(ratios) > 0 {
			printRatioBench(ratios)
		}
		if daemonRes != nil {
			printDaemonBench(daemonRes)
		}
	}
	if *ratioGuard != "" {
		if err := checkRatioGuard(*ratioGuard, ratios); err != nil {
			fmt.Fprintln(os.Stderr, "hbnbench:", err)
			os.Exit(1)
		}
	}
	for _, r := range results {
		if !r.OK {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	// Flush a CPU profile in flight so a failing run still leaves a
	// readable file (no-op when none was started).
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "hbnbench:", err)
	os.Exit(1)
}
