package main

import (
	"math/rand"
	"time"

	"hbn/internal/nibble"
	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The shape every workload shares: the 64-processor SCI cluster of the
// repository's BENCH files (8 switches on a top ring, 8 processors per
// leaf ring), 1024 objects over 2 shards, read-replication threshold 8.
// Only these shape fields are set; every tuning knob of serve.Options
// and hbnd.Config keeps its default, so a later change to a default is
// measured rather than bypassed.
const (
	switches     = 8
	procsPerRing = 8
	ringBW       = 32
	switchBW     = 16
	numObjects   = 1024
	shards       = 2
	threshold    = 8
)

func topology() *tree.Tree { return tree.SCICluster(switches, procsPerRing, ringBW, switchBW) }

// spec is one workload. Daemon workloads (net) split the generated trace
// into one half per client connection, and each connection cycles its
// half; in-process workloads serve the whole trace once per round, each
// round on a fresh cluster.
type spec struct {
	name   string
	net    bool
	events int   // trace length
	batch  int   // events per Ingest call
	epoch  int64 // EpochRequests (0: no epoch re-solve)
	// snapEvery is the period of the snapshots every workload cuts while
	// it serves: connection 0 asks the daemon for one, or the in-process
	// loop cuts one between batches.
	snapEvery time.Duration
	gen       func(rng *rand.Rand, t *tree.Tree, n int) []workload.TraceEvent
}

const snapEvery = 200 * time.Millisecond

var workloads = []spec{
	{name: "net-small-batch", net: true, events: 1 << 20, batch: 16, epoch: 1 << 20, snapEvery: snapEvery, gen: uniform},
	{name: "net-drift-snapshot", net: true, events: 4_000_000, batch: 512, epoch: 16384, snapEvery: snapEvery, gen: driftingZipf},
	{name: "ingest-drift", events: 2_000_000, batch: 1024, epoch: 20000, snapEvery: snapEvery, gen: driftingZipf},
	{name: "ingest-write-storm", events: 4_000_000, batch: 1024, snapEvery: snapEvery, gen: writeStorm},
}

func lookup(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// uniform draws objects and processors uniformly, 10% writes: no
// locality for the online strategy to exploit and nothing for the epoch
// solver to chase.
func uniform(rng *rand.Rand, t *tree.Tree, n int) []workload.TraceEvent {
	leaves := t.Leaves()
	out := make([]workload.TraceEvent, n)
	for i := range out {
		out[i] = workload.TraceEvent{
			Object: rng.Intn(numObjects),
			Node:   leaves[rng.Intn(len(leaves))],
			Write:  rng.Intn(10) == 0,
		}
	}
	return out
}

func driftingZipf(rng *rand.Rand, t *tree.Tree, n int) []workload.TraceEvent {
	return workload.DriftingZipf(rng, t, numObjects, n, 6, 1.0, 0.03)
}

func writeStorm(rng *rand.Rand, t *tree.Tree, n int) []workload.TraceEvent {
	return workload.WriteStorm(rng, t, numObjects, n, 4, 0.05)
}

// batches cuts a trace into consecutive batches of size events, dropping
// a short tail so every batch is the same size.
func batches(trace []workload.TraceEvent, size int) [][]workload.TraceEvent {
	out := make([][]workload.TraceEvent, 0, len(trace)/size)
	for lo := 0; lo+size <= len(trace); lo += size {
		out = append(out, trace[lo:lo+size:lo+size])
	}
	return out
}

// congestion is the serving-side congestion of a per-edge load vector
// under the paper's cost model: the largest of every switch's load over
// its bandwidth and every bus's load (half the sum of its incident switch
// loads) over its bandwidth.
func congestion(t *tree.Tree, loads []int64) float64 {
	var c float64
	for e := 0; e < t.NumEdges(); e++ {
		c = max(c, float64(loads[e])/float64(t.EdgeBandwidth(tree.EdgeID(e))))
	}
	for _, b := range t.Buses() {
		var sum int64
		for _, h := range t.Adj(b) {
			sum += loads[h.Edge]
		}
		c = max(c, float64(sum)/(2*float64(t.NodeBandwidth(b))))
	}
	return c
}

// staticCongestion is the congestion of the clairvoyant static optimum
// for the aggregated frequencies w: the nibble placement computed with
// the whole trace known in advance, as dynamic.StaticOffline computes it.
// Taking frequencies rather than a trace lets the daemon workloads score
// the multiset of batches the daemon acknowledged without expanding it.
func staticCongestion(t *tree.Tree, w *workload.W) (float64, error) {
	p, err := nibble.Place(t, w).Placement(t, w)
	if err != nil {
		return 0, err
	}
	return placement.Evaluate(t, p).Congestion.Float(), nil
}
