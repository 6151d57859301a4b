package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hbn/internal/serve"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The -reconfig benchmark drives the serving layer through live topology
// changes: a leaf-failure failover, a capacity scale-out, and a bandwidth
// brownout, each with a trace whose traffic shape matches the event. Per
// scenario it reports the Reconfigure latency (this benchmark ingests
// sequentially, so no batch overlaps it), the ingest throughput before /
// during / after the churn, and the post-churn serving congestion of the
// migrated cluster against a cold restart on the new topology — the
// full-state-loss alternative a reconfiguration subsystem is measured
// against.

// reconfigScenario is one churn event: the diff, plus the trace already
// split at the reconfiguration point, each half in its own tree's ID
// space (pre: old tree, post: new tree).
type reconfigScenario struct {
	name      string
	diff      topo.Diff
	newT      *tree.Tree
	pre, post []workload.TraceEvent
}

// jsonReconfig is one scenario's outcome in -json mode.
type jsonReconfig struct {
	Scenario         string  `json:"scenario"`
	Requests         int     `json:"requests"`
	Shards           int     `json:"shards"`
	ReconfigMS       float64 `json:"reconfig_ms"`
	RpsPre           float64 `json:"rps_pre"`
	RpsChurn         float64 `json:"rps_churn"`
	RpsPost          float64 `json:"rps_post"`
	PostMaxEdge      int64   `json:"post_max_edge_load"`
	PostCongestion   float64 `json:"post_congestion"`
	ColdMaxEdge      int64   `json:"cold_max_edge_load"`
	ColdCongestion   float64 `json:"cold_congestion"`
	VsColdRatio      float64 `json:"vs_cold_ratio"`
	StaticCongestion float64 `json:"static_congestion"`
	Moved            int64   `json:"moved"`
	Recovered        int     `json:"recovered"`
	RemovedNodes     int     `json:"removed_nodes"`
	AddedNodes       int     `json:"added_nodes"`
}

// reconfigScenarios builds the three churn events on the shared SCI
// topology. Traces are generated in the ID space their generator needs
// and translated across the diff's remap, exactly as a live deployment
// would translate in-flight traffic.
func reconfigScenarios(seed int64, t *tree.Tree, objects, n int) ([]reconfigScenario, error) {
	var out []reconfigScenario

	// Failover: the last ring loses two processors mid-trace.
	{
		leaves := t.Leaves()
		doomed := leaves[len(leaves)-2:]
		diff := topo.Diff{Remove: doomed}
		nt, m, err := topo.Apply(t, diff)
		if err != nil {
			return nil, err
		}
		trace := workload.Failover(rand.New(rand.NewSource(seed)), t, objects, n, doomed, n/2, 0.05)
		post := make([]workload.TraceEvent, n-n/2)
		for i, ev := range trace[n/2:] {
			post[i] = workload.TraceEvent{Object: ev.Object, Node: m.Node[ev.Node], Write: ev.Write}
		}
		out = append(out, reconfigScenario{"failover", diff, nt, trace[:n/2], post})
	}

	// Scale-out: a fresh ring of processors joins mid-trace and absorbs a
	// growing share of the traffic.
	{
		diff := topo.Diff{Add: []topo.Graft{
			{Kind: tree.Bus, Name: "ring-new", Bandwidth: 32, Parent: 0, SwitchBandwidth: 16},
		}}
		for j := 0; j < 8; j++ {
			diff.Add = append(diff.Add, topo.Graft{Kind: tree.Processor, ParentAdded: 1})
		}
		nt, m, err := topo.Apply(t, diff)
		if err != nil {
			return nil, err
		}
		joining := m.Added[1:]
		trace := workload.ScaleOut(rand.New(rand.NewSource(seed+1)), nt, objects, n, joining, n/2, 0.05)
		pre := make([]workload.TraceEvent, n/2)
		for i, ev := range trace[:n/2] {
			pre[i] = workload.TraceEvent{Object: ev.Object, Node: m.NodeBack[ev.Node], Write: ev.Write}
		}
		out = append(out, reconfigScenario{"scale-out", diff, nt, pre, trace[n/2:]})
	}

	// Brownout: the hot region's bus and uplink lose three quarters of
	// their bandwidth mid-trace; IDs are untouched.
	{
		ring := tree.NodeID(1)
		uplink, _ := t.EdgeBetween(0, ring)
		var region []tree.NodeID
		for _, h := range t.Adj(ring) {
			if t.IsLeaf(h.To) {
				region = append(region, h.To)
			}
		}
		diff := topo.Diff{
			SetBusBandwidth:    []topo.BusBandwidth{{Node: ring, Bandwidth: max(1, t.NodeBandwidth(ring)/4)}},
			SetSwitchBandwidth: []topo.SwitchBandwidth{{Edge: uplink, Bandwidth: max(1, t.EdgeBandwidth(uplink)/4)}},
		}
		nt, _, err := topo.Apply(t, diff)
		if err != nil {
			return nil, err
		}
		trace := workload.Brownout(rand.New(rand.NewSource(seed+2)), t, objects, n, region, 0.7, 0.05)
		out = append(out, reconfigScenario{"brownout", diff, nt, trace[:n/2], trace[n/2:]})
	}
	return out, nil
}

// runReconfigBench serves every churn scenario through a reconfiguring
// cluster and a cold-restarted one on the post-diff topology.
func runReconfigBench(quick bool, seed int64) ([]jsonReconfig, error) {
	t := tree.SCICluster(8, 8, 32, 16)
	requests := 200000
	objects := 256
	if quick {
		requests = 20000
		objects = 64
	}
	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	if shards < 4 {
		shards = 4
	}
	epoch := int64(requests / 50)
	const batch = 512

	scenarios, err := reconfigScenarios(seed, t, objects, requests)
	if err != nil {
		return nil, err
	}
	var out []jsonReconfig
	for _, sc := range scenarios {
		opts := serve.Options{Shards: shards, EpochRequests: epoch, Threshold: 8}
		c, err := serve.NewCluster(t, objects, opts)
		if err != nil {
			return nil, err
		}
		ingest := func(c *serve.Cluster, events []workload.TraceEvent) (time.Duration, error) {
			start := time.Now()
			for lo := 0; lo < len(events); lo += batch {
				hi := min(lo+batch, len(events))
				if _, err := c.Ingest(events[lo:hi]); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}

		preDur, err := ingest(c, sc.pre)
		if err != nil {
			return nil, fmt.Errorf("reconfig %s pre: %w", sc.name, err)
		}
		rs, err := c.Reconfigure(sc.diff)
		if err != nil {
			return nil, fmt.Errorf("reconfig %s: %w", sc.name, err)
		}
		log := c.EpochLog()
		staticCong := log[len(log)-1].StaticCongestion
		snap := c.EdgeLoad()

		// The churn window: the reconfigure latency amortized over the
		// batches served immediately after it.
		churnLen := min(10*batch, len(sc.post))
		churnDur, err := ingest(c, sc.post[:churnLen])
		if err != nil {
			return nil, fmt.Errorf("reconfig %s churn: %w", sc.name, err)
		}
		postDur, err := ingest(c, sc.post[churnLen:])
		if err != nil {
			return nil, fmt.Errorf("reconfig %s post: %w", sc.name, err)
		}

		final := c.EdgeLoad()
		delta := make([]int64, len(final))
		for e := range final {
			delta[e] = final[e] - snap[e]
		}

		cold, err := serve.NewCluster(sc.newT, objects, opts)
		if err != nil {
			return nil, err
		}
		if _, err := ingest(cold, sc.post); err != nil {
			return nil, fmt.Errorf("reconfig %s cold: %w", sc.name, err)
		}
		coldLoads := cold.EdgeLoad()

		js := jsonReconfig{
			Scenario:         sc.name,
			Requests:         requests,
			Shards:           shards,
			ReconfigMS:       float64(rs.Elapsed.Microseconds()) / 1000,
			RpsPre:           rate(len(sc.pre), preDur),
			RpsChurn:         rate(churnLen, rs.Elapsed+churnDur),
			RpsPost:          rate(len(sc.post)-churnLen, postDur),
			PostMaxEdge:      maxOf(delta),
			PostCongestion:   congestionOf(sc.newT, delta),
			ColdMaxEdge:      maxOf(coldLoads),
			ColdCongestion:   congestionOf(sc.newT, coldLoads),
			StaticCongestion: staticCong,
			Moved:            rs.Moved,
			Recovered:        rs.Recovered,
			RemovedNodes:     rs.RemovedNodes,
			AddedNodes:       rs.AddedNodes,
		}
		if js.ColdCongestion > 0 {
			js.VsColdRatio = js.PostCongestion / js.ColdCongestion
		}
		out = append(out, js)
	}
	return out, nil
}

// printReconfigBench renders the -reconfig results as an aligned table.
func printReconfigBench(results []jsonReconfig) {
	fmt.Printf("reconfiguration benchmark: %d requests, %d shards, diff at the halfway point\n",
		results[0].Requests, results[0].Shards)
	fmt.Printf("%-11s %10s %9s %9s %9s %10s %10s %8s %9s %6s\n",
		"scenario", "reconf-ms", "Mrps-pre", "Mrps-chn", "Mrps-post", "post-cong", "cold-cong", "vs-cold", "moved", "recov")
	for _, r := range results {
		fmt.Printf("%-11s %10.2f %9.2f %9.2f %9.2f %10.1f %10.1f %8.2f %9d %6d\n",
			r.Scenario, r.ReconfigMS, r.RpsPre/1e6, r.RpsChurn/1e6, r.RpsPost/1e6,
			r.PostCongestion, r.ColdCongestion, r.VsColdRatio, r.Moved, r.Recovered)
	}
}
