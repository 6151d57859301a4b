// Quickstart: build a small hierarchical bus network, describe an access
// pattern, run the paper's extended-nibble strategy and inspect the
// placement and its congestion.
package main

import (
	"fmt"
	"log"

	"hbn"
)

func main() {
	// A two-level hierarchy: a backbone bus over two workgroup buses,
	// three processors each. Processor switches have bandwidth 1 (the
	// paper's "slowest part of the system"); inner links are faster.
	b := hbn.NewNetworkBuilder()
	backbone := b.AddBus("backbone", 8)
	groupA := b.AddBus("groupA", 4)
	groupB := b.AddBus("groupB", 4)
	b.Connect(backbone, groupA, 4)
	b.Connect(backbone, groupB, 4)
	var procs []hbn.NodeID
	for i := 0; i < 3; i++ {
		p := b.AddProcessor(fmt.Sprintf("a%d", i))
		b.Connect(groupA, p, 1)
		procs = append(procs, p)
	}
	for i := 0; i < 3; i++ {
		p := b.AddProcessor(fmt.Sprintf("b%d", i))
		b.Connect(groupB, p, 1)
		procs = append(procs, p)
	}
	t := b.MustBuildHBN()

	// Two shared objects:
	// - a config object: written rarely by a0, read everywhere;
	// - a log object: written heavily by b0, read by a0.
	w := hbn.NewWorkload(2, t.Len())
	const config, logObj = 0, 1
	w.AddWrites(config, procs[0], 2)
	for _, p := range procs {
		w.AddReads(config, p, 50)
	}
	w.AddWrites(logObj, procs[3], 80)
	w.AddReads(logObj, procs[0], 10)

	// A Solver is the steady path: it owns all pipeline scratch, so warm
	// Solve calls allocate almost nothing and Resolve re-solves small
	// workload drifts incrementally. (For a one-shot, hbn.Solve(t, w) is
	// the throwaway convenience form.)
	solver, err := hbn.NewSolver(t)
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(w)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("extended-nibble placement:")
	for x := 0; x < w.NumObjects(); x++ {
		names := []string{}
		for _, v := range res.Final.CopyNodes(x) {
			names = append(names, t.Name(v))
		}
		fmt.Printf("  object %d -> copies on %v\n", x, names)
	}
	fmt.Printf("congestion: %s at %s\n", res.Report.Congestion, res.Report.Bottleneck)
	fmt.Printf("certified lower bound on the optimum: %s\n", res.LowerBound())
	fmt.Printf("ratio: %.2f (Theorem 4.3 guarantees <= 7)\n", res.ApproxRatio())

	// Expectation: the read-mostly config object is replicated into both
	// groups (reads become local; the rare writes pay the update tree),
	// while the write-heavy log object gets a single copy at its writer.
	if len(res.Final.CopyNodes(config)) < 2 {
		log.Fatal("expected the config object to be replicated")
	}
	if n := res.Final.CopyNodes(logObj); len(n) != 1 || n[0] != procs[3] {
		log.Fatalf("expected the log object to live at its writer, got %v", n)
	}
	fmt.Println("ok: replication follows the read/write mix, as the nibble rule predicts")

	// The workload drifts: a0 starts reading the log heavily. Resolve
	// recomputes only the changed object (Steps 1-2 are per-object) and
	// returns a result bit-identical to a fresh solve of the new workload:
	// a0's demand (510 requests) now dominates the writer's 80, so the
	// gravity center — and with it the single copy — migrates to a0.
	w.AddReads(logObj, procs[0], 500)
	res, err = solver.Resolve([]int{logObj})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the read burst: log object on %v, congestion %s\n",
		res.Final.CopyNodes(logObj), res.Report.Congestion)
	if n := res.Final.CopyNodes(logObj); len(n) != 1 || n[0] != procs[0] {
		log.Fatalf("expected the log copy to migrate to the heavy reader, got %v", n)
	}
	fmt.Println("ok: the incremental re-solve moved the copy to the heavy reader")
}
