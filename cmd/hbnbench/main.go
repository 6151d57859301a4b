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
	Timestamp  string       `json:"timestamp"`
	Seed       int64        `json:"seed"`
	Quick      bool         `json:"quick"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Results    []jsonResult `json:"results"`
	Ratio      []jsonRatio  `json:"ratio,omitempty"`
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
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	)
	flag.Parse()
	if err := checkFlags(*quick, *ratioGuard); err != nil {
		fmt.Fprintln(os.Stderr, "hbnbench:", err)
		os.Exit(2)
	}
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

// checkFlags rejects flag combinations that cannot give a meaningful
// result: -ratioguard compares against a full-scale BENCH record, so a
// -quick run, one tenth its length, would fail it on every commit.
func checkFlags(quick bool, ratioGuard string) error {
	if quick && ratioGuard != "" {
		return fmt.Errorf("-quick cannot be combined with -ratioguard: the guard's baseline %s is a full-scale run", ratioGuard)
	}
	return nil
}

func fatal(err error) {
	// Flush a CPU profile in flight so a failing run still leaves a
	// readable file (no-op when none was started).
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "hbnbench:", err)
	os.Exit(1)
}
