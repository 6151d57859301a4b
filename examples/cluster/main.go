// Cluster serving: the online serving layer under drifting traffic. A
// sharded hbn.Cluster ingests a drifting-Zipf trace; every epoch the
// observed frequencies of the drifted objects feed the incremental static
// solver, and each shard adopts the freshly solved placement as its warm
// state. The same trace served without re-solving shows what epoch
// re-solve buys on the congestion numerator.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hbn"
	"hbn/internal/workload"
)

func main() {
	t := hbn.SCICluster(4, 6, 16, 8) // 4 leaf rings of 6 processors under a top ring
	const (
		objects  = 24
		requests = 30000
		batch    = 500
	)
	trace := workload.DriftingZipf(rand.New(rand.NewSource(9)), t, objects, requests, 6, 1.0, 0.02)

	serveAll := func(epoch int64) *hbn.Cluster {
		c, err := hbn.NewCluster(t, objects, hbn.ClusterOptions{
			Shards:        4,
			EpochRequests: epoch,
			Threshold:     6,
		})
		if err != nil {
			log.Fatal(err)
		}
		for lo := 0; lo < len(trace); lo += batch {
			if _, err := c.Ingest(trace[lo : lo+batch]); err != nil {
				log.Fatal(err)
			}
		}
		return c
	}

	resolving := serveAll(1000) // re-solve every 1000 requests
	baseline := serveAll(0)     // never re-solve: plain sharded online strategy

	st := resolving.Stats()
	fmt.Printf("drifting-Zipf trace: %d requests over %d objects, 6 phases\n\n", requests, objects)
	fmt.Printf("%-28s %14s %12s\n", "", "max edge load", "total load")
	fmt.Printf("%-28s %14d %12d\n", "epoch re-solve (every 1000)", resolving.MaxEdgeLoad(), resolving.TotalLoad())
	fmt.Printf("%-28s %14d %12d\n", "no re-solve baseline", baseline.MaxEdgeLoad(), baseline.TotalLoad())
	fmt.Printf("\n%d epoch passes re-solved %d drifted objects, moved %d copy-hops (booked off the serving path), solver time %v\n",
		st.Epochs, st.Drifted, st.AdoptMoved, st.ResolveTime)

	fmt.Println("\nfirst epochs (static congestion is the solver's view of observed traffic):")
	for _, ep := range resolving.EpochLog()[:5] {
		fmt.Printf("  epoch %2d @ %6d reqs: %2d drifted, moved %4d, static congestion %.1f, served max edge %d\n",
			ep.Epoch, ep.Requests, ep.Drifted, ep.Moved, ep.StaticCongestion, ep.MaxEdgeLoad)
	}

	if resolving.MaxEdgeLoad() >= baseline.MaxEdgeLoad() {
		log.Fatal("expected epoch re-solve to beat the no-re-solve baseline on this trace")
	}
	fmt.Println("\nok: epoch re-solve beat the no-re-solve baseline on max edge load")
}
