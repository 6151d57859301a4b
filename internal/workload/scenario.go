package workload

import (
	"fmt"
	"math"
	"math/rand"

	"hbn/internal/tree"
)

// TraceEvent is one online access in a request trace: leaf Node reads or
// writes object Object. It is the canonical event type shared by the
// online strategy (dynamic.Request aliases it) and the serving layer, and
// lives here so trace generators sit next to the static frequency
// generators without an import cycle.
type TraceEvent struct {
	Object int
	Node   tree.NodeID
	Write  bool
}

// The phase-shifting trace generators below produce the request sequences
// the epoch re-solve machinery is measured on: each one changes its
// locality or popularity structure partway through the trace, so a static
// placement computed on early traffic goes stale and periodic re-solving
// becomes observable. Every generator takes an explicit *rand.Rand (no
// hidden global-rand use anywhere in this package) and touches only
// leaves, so the aggregated frequencies of any prefix are always valid
// hierarchical-bus-network workloads.

// zipfSampler draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s via binary search on the cumulative weights.
type zipfSampler struct {
	cum []float64
}

func newZipfSampler(n int, s float64) zipfSampler {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return zipfSampler{cum: cum}
}

func (z zipfSampler) sample(rng *rand.Rand) int {
	x := rng.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DriftingZipf draws objects from a Zipf(s) popularity distribution whose
// rank-to-object permutation is reshuffled at every phase boundary, and
// whose per-object locality (a small home set of leaves, where most of the
// object's requests originate) is resampled per phase as well. The result
// is sustained skew with periodically moving hot objects and hot regions —
// the canonical trace where epoch re-solving pays off. A fraction
// (1-homeBias) of requests come from a uniformly random leaf.
func DriftingZipf(rng *rand.Rand, t *tree.Tree, numObjects, n, phases int, s, writeFrac float64) []TraceEvent {
	checkTrace(t, numObjects, n)
	if phases < 1 {
		phases = 1
	}
	const homeBias = 0.9
	leaves := t.Leaves()
	zs := newZipfSampler(numObjects, s)
	homes := make([][]tree.NodeID, numObjects)
	events := make([]TraceEvent, 0, n)
	var perm []int
	for i := 0; i < n; i++ {
		if i*phases/n != (i-1)*phases/n || i == 0 {
			// Phase boundary: move the popularity ranks and the homes.
			perm = rng.Perm(numObjects)
			for x := range homes {
				homes[x] = sampleLeaves(rng, leaves, 1+rng.Intn(min(4, len(leaves))), homes[x][:0])
			}
		}
		x := perm[zs.sample(rng)]
		node := leaves[rng.Intn(len(leaves))]
		if rng.Float64() < homeBias {
			node = homes[x][rng.Intn(len(homes[x]))]
		}
		events = append(events, TraceEvent{Object: x, Node: node, Write: rng.Float64() < writeFrac})
	}
	return events
}

// Diurnal sweeps an activity window across the leaves: at trace position i
// the "sun" is centered on leaf (i mod period)/period of the way around
// the leaf ring, and requests originate from a window of nearby leaves.
// Each leaf region favors its own slice of the object space, so both the
// active region and the popular objects cycle with the day. Models the
// follow-the-sun load of a geographically distributed user base.
func Diurnal(rng *rand.Rand, t *tree.Tree, numObjects, n, period int, writeFrac float64) []TraceEvent {
	checkTrace(t, numObjects, n)
	if period < 1 {
		period = 1
	}
	leaves := t.Leaves()
	nl := len(leaves)
	window := max(1, nl/4)
	regionObjs := max(1, numObjects/4)
	events := make([]TraceEvent, 0, n)
	for i := 0; i < n; i++ {
		center := (i % period) * nl / period
		li := (center + rng.Intn(window)) % nl
		// The active region's favored objects, plus occasional global ones.
		x := (li*numObjects/nl + rng.Intn(regionObjs)) % numObjects
		if rng.Float64() < 0.1 {
			x = rng.Intn(numObjects)
		}
		events = append(events, TraceEvent{Object: x, Node: leaves[li], Write: rng.Float64() < writeFrac})
	}
	return events
}

// HotspotMigration concentrates a fraction hot of all traffic on a small
// owner region (the owner leaf and its next two neighbors in leaf order,
// uniformly), and migrates the hotspot to a fresh random owner moves
// times over the trace: the pattern where an initially good placement
// becomes maximally wrong. The remaining traffic is uniform background.
func HotspotMigration(rng *rand.Rand, t *tree.Tree, numObjects, n, moves int, hot, writeFrac float64) []TraceEvent {
	checkTrace(t, numObjects, n)
	if moves < 0 {
		moves = 0
	}
	leaves := t.Leaves()
	nl := len(leaves)
	segments := moves + 1
	owner := rng.Intn(nl)
	events := make([]TraceEvent, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && i*segments/n != (i-1)*segments/n {
			owner = rng.Intn(nl) // the hotspot jumps
		}
		li := rng.Intn(nl)
		if rng.Float64() < hot {
			// Owner region: the owner leaf or a close neighbor.
			li = (owner + rng.Intn(3)) % nl
		}
		events = append(events, TraceEvent{
			Object: rng.Intn(numObjects),
			Node:   leaves[li],
			Write:  rng.Float64() < writeFrac,
		})
	}
	return events
}

// WriteStorm is read-mostly traffic (write fraction calmWriteFrac, each
// object read from a small home set of leaves) interrupted by storms
// evenly spaced storm windows during which a quarter of the object space
// flips to write-dominated traffic from a single writer leaf per object —
// the invalidation-heavy bursts that punish wide replication. Each storm
// window spans 1/(2*storms) of the trace.
func WriteStorm(rng *rand.Rand, t *tree.Tree, numObjects, n, storms int, calmWriteFrac float64) []TraceEvent {
	checkTrace(t, numObjects, n)
	if storms < 0 {
		storms = 0
	}
	leaves := t.Leaves()
	victims := max(1, numObjects/4)
	writers := make([]tree.NodeID, numObjects)
	homes := make([][]tree.NodeID, numObjects)
	for x := range writers {
		writers[x] = leaves[rng.Intn(len(leaves))]
		homes[x] = sampleLeaves(rng, leaves, 1+rng.Intn(min(4, len(leaves))), nil)
	}
	events := make([]TraceEvent, 0, n)
	for i := 0; i < n; i++ {
		x := rng.Intn(numObjects)
		node := homes[x][rng.Intn(len(homes[x]))]
		if rng.Float64() < 0.1 {
			node = leaves[rng.Intn(len(leaves))]
		}
		write := rng.Float64() < calmWriteFrac
		if storms > 0 && inStorm(i, n, storms) && x < victims {
			write = rng.Float64() < 0.9
			if write {
				node = writers[x]
			}
		}
		events = append(events, TraceEvent{Object: x, Node: node, Write: write})
	}
	return events
}

// The two churn scenarios below pair with the topology-reconfiguration
// subsystem (internal/topo): each one generates the traffic side of a
// planned topology event — a leaf failure, a bandwidth brownout — so a
// cluster can be driven through Reconfigure mid-trace with traffic whose
// shape matches the event. They emit node IDs of the pre-diff tree;
// callers serving across the diff remap later events through topo.Remap.

// Failover generates home-biased traffic for a planned failure of the
// given leaves at trace position failAt: every object reads and writes
// from a small home set drawn from ALL leaves (doomed ones included, so
// some objects' locality is about to be orphaned); from failAt on, each
// failed leaf's traffic re-homes to its replacement — the next surviving
// leaf in leaf order — modelling the failed processors' users reconnecting
// through a neighbor. At least one leaf must survive.
func Failover(rng *rand.Rand, t *tree.Tree, numObjects, n int, failed []tree.NodeID, failAt int, writeFrac float64) []TraceEvent {
	checkTrace(t, numObjects, n)
	if failAt < 0 || failAt > n {
		panic(fmt.Sprintf("workload: Failover position %d outside trace [0,%d]", failAt, n))
	}
	leaves := t.Leaves()
	isFailed := make(map[tree.NodeID]bool, len(failed))
	for _, v := range failed {
		if !t.IsLeaf(v) {
			panic(fmt.Sprintf("workload: Failover: node %d is not a leaf", v))
		}
		isFailed[v] = true
	}
	if len(isFailed) >= len(leaves) {
		panic("workload: Failover: no leaf survives")
	}
	replacement := make(map[tree.NodeID]tree.NodeID, len(isFailed))
	for i, v := range leaves {
		if !isFailed[v] {
			continue
		}
		for k := 1; k < len(leaves); k++ {
			if r := leaves[(i+k)%len(leaves)]; !isFailed[r] {
				replacement[v] = r
				break
			}
		}
	}
	homes := make([][]tree.NodeID, numObjects)
	for x := range homes {
		homes[x] = sampleLeaves(rng, leaves, 1+rng.Intn(min(4, len(leaves))), nil)
	}
	const homeBias = 0.9
	events := make([]TraceEvent, 0, n)
	for i := 0; i < n; i++ {
		x := rng.Intn(numObjects)
		node := leaves[rng.Intn(len(leaves))]
		if rng.Float64() < homeBias {
			node = homes[x][rng.Intn(len(homes[x]))]
		}
		if i >= failAt && isFailed[node] {
			node = replacement[node]
		}
		events = append(events, TraceEvent{Object: x, Node: node, Write: rng.Float64() < writeFrac})
	}
	return events
}

// Brownout generates sustained regionally concentrated traffic for a
// bandwidth-degradation event: a fraction hot of all requests originates
// from the hotRegion leaves (whose shared buses the operator is about to
// degrade), the rest uniformly from all leaves; the low half of the
// object space homes inside the region. The traffic itself is stationary
// — the point of the scenario is that halving the region's bus and switch
// bandwidths mid-trace moves the CONGESTION optimum while the load
// pattern stands still, isolating the placement response to a pure
// bandwidth diff.
func Brownout(rng *rand.Rand, t *tree.Tree, numObjects, n int, hotRegion []tree.NodeID, hot, writeFrac float64) []TraceEvent {
	checkTrace(t, numObjects, n)
	if len(hotRegion) == 0 {
		panic("workload: Brownout: empty hot region")
	}
	for _, v := range hotRegion {
		if !t.IsLeaf(v) {
			panic(fmt.Sprintf("workload: Brownout: node %d is not a leaf", v))
		}
	}
	leaves := t.Leaves()
	hotObjs := max(1, numObjects/2)
	events := make([]TraceEvent, 0, n)
	for i := 0; i < n; i++ {
		var (
			x    int
			node tree.NodeID
		)
		if rng.Float64() < hot {
			x = rng.Intn(hotObjs)
			node = hotRegion[rng.Intn(len(hotRegion))]
		} else {
			x = rng.Intn(numObjects)
			node = leaves[rng.Intn(len(leaves))]
		}
		events = append(events, TraceEvent{Object: x, Node: node, Write: rng.Float64() < writeFrac})
	}
	return events
}

// inStorm reports whether trace position i falls inside one of the storms
// evenly spaced storm windows, each spanning 1/(2*storms) of the trace
// (so storms cover half of the trace in total).
func inStorm(i, n, storms int) bool {
	seg := n / storms
	if seg == 0 {
		return true
	}
	return i%seg < seg/2
}

func sampleLeaves(rng *rand.Rand, leaves []tree.NodeID, k int, dst []tree.NodeID) []tree.NodeID {
	perm := rng.Perm(len(leaves))
	for i := 0; i < k; i++ {
		dst = append(dst, leaves[perm[i]])
	}
	return dst
}

func checkTrace(t *tree.Tree, numObjects, n int) {
	if numObjects < 1 || n < 0 {
		panic(fmt.Sprintf("workload: invalid trace dimensions: %d objects, %d requests", numObjects, n))
	}
	if t.NumLeaves() == 0 {
		panic("workload: tree has no leaves")
	}
}
