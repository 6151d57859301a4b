package main

import "hbn/internal/tree"

// congestionOf is the serving-side congestion of a load vector: the
// maximum relative load over switches and buses (a bus carries half the
// sum of its incident switch loads, as in the paper's cost model). The
// competitive-ratio harness scores every load vector with it, and
// TestCongestionOf pins the cost model.
func congestionOf(t *tree.Tree, loads []int64) float64 {
	var c float64
	for e := 0; e < t.NumEdges(); e++ {
		if v := float64(loads[e]) / float64(t.EdgeBandwidth(tree.EdgeID(e))); v > c {
			c = v
		}
	}
	for _, b := range t.Buses() {
		var sum int64
		for _, h := range t.Adj(b) {
			sum += loads[h.Edge]
		}
		if v := float64(sum) / (2 * float64(t.NodeBandwidth(b))); v > c {
			c = v
		}
	}
	return c
}
