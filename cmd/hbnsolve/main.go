// Command hbnsolve reads a hierarchical bus network and a workload (the
// JSON formats of cmd/hbngen) and runs the extended-nibble strategy,
// printing the placement and its congestion report.
//
// Usage:
//
//	hbnsolve -tree net.json -workload load.json [-reassign] [-verbose]
package main

import (
	"flag"
	"fmt"
	"os"

	"hbn/internal/core"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

func main() {
	var (
		treePath = flag.String("tree", "", "network JSON (required)")
		loadPath = flag.String("workload", "", "workload JSON (required)")
		reassign = flag.Bool("reassign", false, "reassign requests to nearest copies after mapping")
		verbose  = flag.Bool("verbose", false, "print per-object copy sets")
	)
	flag.Parse()
	if *treePath == "" || *loadPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	t, err := readTree(*treePath)
	if err != nil {
		fatal(err)
	}
	w, err := readWorkload(*loadPath)
	if err != nil {
		fatal(err)
	}

	opts := core.DefaultOptions()
	opts.ReassignNearest = *reassign
	// The reusable Solver is the steady-path API (warm calls reuse all
	// pipeline scratch); constructing it also validates the network once.
	solver, err := core.NewSolver(t, opts)
	if err != nil {
		fatal(err)
	}
	res, err := solver.Solve(w)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("network: %d nodes (%d processors, %d buses), height %d\n",
		t.Len(), t.NumLeaves(), len(t.Buses()), t.Rooted(0).Height)
	fmt.Printf("workload: %d objects\n", w.NumObjects())
	fmt.Printf("congestion:          %s (%.3f) at %s\n",
		res.Report.Congestion, res.Report.Congestion.Float(), res.Report.Bottleneck)
	fmt.Printf("lower bound on OPT:  %s (%.3f)\n", res.LowerBound(), res.LowerBound().Float())
	fmt.Printf("ratio vs bound:      %.3f (Theorem 4.3 guarantees ≤ 7 vs OPT)\n", res.ApproxRatio())
	fmt.Printf("total load:          %d\n", res.Report.TotalLoad)
	fmt.Printf("copies placed:       %d (deletion removed %d, splits %d)\n",
		res.Final.TotalCopies(), res.DeletionStats.Deleted, res.DeletionStats.Splits)
	if res.MappingTrace != nil {
		fmt.Printf("mapping:             %d objects mapped, %d up-moves, %d down-moves, τmax=%d\n",
			res.MappedObjects, res.MappingTrace.UpMoves, res.MappingTrace.DownMoves, res.MappingTrace.TauMax)
	}
	if *verbose {
		for x := 0; x < w.NumObjects(); x++ {
			fmt.Printf("object %d: copies on %v\n", x, res.Final.CopyNodes(x))
		}
	}
}

func readTree(path string) (*tree.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tree.Decode(f)
}

func readWorkload(path string) (*workload.W, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.Decode(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hbnsolve:", err)
	os.Exit(1)
}
