// Elastic reconfiguration: a serving cluster survives a leaf failure
// mid-traffic. A sharded hbn.Cluster serves a failover trace on an SCI
// network; halfway through, two processors of the last ring fail and are
// removed with Cluster.Reconfigure. Surviving copies stay in place,
// objects whose copies all sat on the failed processors are restored at
// the nearest surviving leaf, the observed frequencies migrate across the
// ID remap, and a freshly solved placement is adopted with the migration
// movement priced through the usual adoption account. Traffic then
// continues on the new topology (in-flight events translated through the
// returned remap) without losing a single request of history.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hbn"
	"hbn/internal/workload"
)

func main() {
	t := hbn.SCICluster(4, 6, 16, 8) // 4 leaf rings of 6 processors
	const (
		objects  = 32
		requests = 40000
		batch    = 500
	)
	leaves := t.Leaves()
	doomed := leaves[len(leaves)-2:] // the last ring loses two processors
	trace := workload.Failover(rand.New(rand.NewSource(4)), t, objects, requests,
		doomed, requests/2, 0.03)

	c, err := hbn.NewCluster(t, objects, hbn.ClusterOptions{
		Shards:        4,
		EpochRequests: 2000,
		Threshold:     6,
	})
	if err != nil {
		log.Fatal(err)
	}
	for lo := 0; lo < requests/2; lo += batch {
		if _, err := c.Ingest(trace[lo : lo+batch]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("before failure: %d nodes, %d requests served, max edge load %d\n",
		c.Tree().Len(), c.Stats().Requests, c.MaxEdgeLoad())

	rs, err := c.Reconfigure(hbn.TopologyDiff{Remove: doomed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfailed %d processors in %v (longest ingest stall %v)\n",
		len(doomed), rs.Elapsed, rs.MaxIngestStall)
	fmt.Printf("  removed %d nodes, kept %d objects on surviving copies, restored %d lost objects\n",
		rs.RemovedNodes, rs.Projected, rs.Recovered)
	fmt.Printf("  migration movement (priced like epoch adoption): %d edge transfers\n", rs.Moved)

	// The post-failure half of the trace re-homes the failed processors'
	// traffic by construction; its node IDs translate through the remap.
	for lo := requests / 2; lo < requests; lo += batch {
		seg := trace[lo : lo+batch]
		mapped := make([]hbn.TraceEvent, len(seg))
		for i, ev := range seg {
			mapped[i] = hbn.TraceEvent{Object: ev.Object, Node: rs.Remap.Node[ev.Node], Write: ev.Write}
		}
		if _, err := c.Ingest(mapped); err != nil {
			log.Fatal(err)
		}
	}

	st := c.Stats()
	alive := 0
	for x := 0; x < objects; x++ {
		if len(c.Copies(x)) > 0 {
			alive++
		}
	}
	fmt.Printf("\nafter failover: %d nodes, %d requests served (history conserved), max edge load %d\n",
		c.Tree().Len(), st.Requests, c.MaxEdgeLoad())
	fmt.Printf("  %d/%d objects hold copies, %d epoch passes (%d of them reconfigures), total adoption movement %d\n",
		alive, objects, st.Epochs, st.Reconfigs, st.AdoptMoved)
}
