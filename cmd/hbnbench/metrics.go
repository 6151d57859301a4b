package main

import (
	"time"

	"hbn/internal/tree"
)

// Shared metric helpers for every benchmark mode. The competitive-ratio
// harness and the reconfiguration benchmark both score load vectors with
// the same congestion definition — keeping it in one place (with a unit
// test pinning the cost model) is what makes their numbers comparable.

// congestionOf is the serving-side congestion of a load vector: the
// maximum relative load over switches and buses (a bus carries half the
// sum of its incident switch loads, as in the paper's cost model).
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

// rate converts an event count over a duration to events/second.
func rate(events int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(events) / d.Seconds()
}

// maxOf returns the largest element (0 for an empty or all-negative
// vector — loads are non-negative).
func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
