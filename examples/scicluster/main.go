// SCI cluster: the paper's Figures 1/2 scenario end to end. Build a
// concrete ring-of-rings SCI network, transform it into its bus-tree model,
// place a shared-memory workload with the extended-nibble strategy,
// replay the resulting traffic on the concrete rings, and finally run the
// slotted simulator to compare delivered makespan against a naive
// placement — the congestion-predicts-throughput story that motivates the
// paper.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hbn"
	"hbn/internal/placement"
	"hbn/internal/ring"
	"hbn/internal/sim"
	"hbn/internal/workload"
)

func main() {
	// Figure 1: a top-level ring with two switches to two workstation
	// rings, four machines each. Ringlets share 4 units of bandwidth.
	net := hbn.Figure1(4, 4, 4)
	m, err := net.BusTree()
	if err != nil {
		log.Fatal(err)
	}
	t := m.Tree
	fmt.Printf("ring network: %d ringlets, %d switches, %d workstations\n",
		net.NumRings(), net.NumSwitches(), net.NumProcs())
	fmt.Printf("bus model (Figure 2): %d nodes, height %d\n", t.Len(), t.Rooted(0).Height)

	// A virtual-shared-memory style workload: pages produced by one
	// machine, consumed by several others.
	rng := rand.New(rand.NewSource(42))
	w := workload.ProducerConsumer(rng, t, 8, workload.GenConfig{MaxReads: 20, MaxWrites: 3, Density: 0.8})

	res, err := hbn.Solve(t, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextended-nibble congestion: %s (lower bound %s, ratio %.2f)\n",
		res.Report.Congestion, res.LowerBound(), res.ApproxRatio())

	// Replay on the concrete rings: the bus model is load-exact.
	ringLoads, err := ring.LoadsFromPlacement(net, m, res.Final)
	if err != nil {
		log.Fatal(err)
	}
	busRep := hbn.Evaluate(t, res.Final)
	for s := 0; s < net.NumSwitches(); s++ {
		if ringLoads.SwitchLoad[s] != busRep.EdgeLoad[m.SwitchEdge[s]] {
			log.Fatalf("switch %d: ring load %d != bus-model load %d",
				s, ringLoads.SwitchLoad[s], busRep.EdgeLoad[m.SwitchEdge[s]])
		}
	}
	fmt.Println("ring replay matches the bus model switch-for-switch (Figure 1 ≡ Figure 2)")

	// Throughput: slotted simulation of the whole request batch.
	makespan := func(p *placement.P) int {
		resources, packets, err := sim.RingWorkload(net, m, p)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.Run(resources, packets, 1_000_000)
		if err != nil {
			log.Fatal(err)
		}
		return r.Makespan
	}
	naive, err := hbn.Baseline("random", 7, t, w)
	if err != nil {
		log.Fatal(err)
	}
	mkNibble, mkNaive := makespan(res.Final), makespan(naive)
	cNaive := hbn.Evaluate(t, naive).Congestion
	fmt.Printf("\nslotted-ring makespan: extended-nibble %d steps, random placement %d steps\n", mkNibble, mkNaive)
	fmt.Printf("congestion:            extended-nibble %s,      random placement %s\n",
		res.Report.Congestion, cNaive)
	if mkNibble <= mkNaive {
		fmt.Println("ok: lower congestion delivered the batch faster, as Section 1 argues")
	} else {
		fmt.Println("note: random placement won this draw — rerun with another seed")
	}
}
