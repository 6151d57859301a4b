package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"hbn/internal/tree"
)

func scenarioTree() *tree.Tree {
	return tree.SCICluster(4, 6, 16, 8)
}

// every generator, for table-driven checks.
var traceGens = []struct {
	name string
	gen  func(rng *rand.Rand, t *tree.Tree, numObjects, n int) []TraceEvent
}{
	{"drifting-zipf", func(rng *rand.Rand, t *tree.Tree, o, n int) []TraceEvent {
		return DriftingZipf(rng, t, o, n, 4, 1.0, 0.1)
	}},
	{"diurnal", func(rng *rand.Rand, t *tree.Tree, o, n int) []TraceEvent {
		return Diurnal(rng, t, o, n, n/3, 0.1)
	}},
	{"hotspot-migration", func(rng *rand.Rand, t *tree.Tree, o, n int) []TraceEvent {
		return HotspotMigration(rng, t, o, n, 3, 0.7, 0.1)
	}},
	{"write-storm", func(rng *rand.Rand, t *tree.Tree, o, n int) []TraceEvent {
		return WriteStorm(rng, t, o, n, 3, 0.05)
	}},
}

// churnGens are the reconfiguration-scenario generators (PR 5), appended
// to the shared table-driven checks below.
var churnGens = []struct {
	name string
	gen  func(rng *rand.Rand, t *tree.Tree, numObjects, n int) []TraceEvent
}{
	{"failover", func(rng *rand.Rand, t *tree.Tree, o, n int) []TraceEvent {
		leaves := t.Leaves()
		return Failover(rng, t, o, n, leaves[len(leaves)-2:], n/2, 0.08)
	}},
	{"brownout", func(rng *rand.Rand, t *tree.Tree, o, n int) []TraceEvent {
		return Brownout(rng, t, o, n, t.Leaves()[:4], 0.7, 0.08)
	}},
}

func allGens() []struct {
	name string
	gen  func(rng *rand.Rand, t *tree.Tree, numObjects, n int) []TraceEvent
} {
	return append(append([]struct {
		name string
		gen  func(rng *rand.Rand, t *tree.Tree, numObjects, n int) []TraceEvent
	}{}, traceGens...), churnGens...)
}

// All trace generators are driven purely by the caller's rand.Rand: the
// same seed reproduces the trace event-for-event (the reproducibility
// contract every serving test and benchmark relies on), and different
// seeds actually change it.
func TestTraceGeneratorsDeterministic(t *testing.T) {
	tr := scenarioTree()
	for _, g := range allGens() {
		a := g.gen(rand.New(rand.NewSource(42)), tr, 10, 3000)
		b := g.gen(rand.New(rand.NewSource(42)), tr, 10, 3000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different traces", g.name)
		}
		c := g.gen(rand.New(rand.NewSource(43)), tr, 10, 3000)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical traces", g.name)
		}
	}
}

// Traces are well-formed: objects in range, every node a leaf (so any
// prefix aggregates to a valid hierarchical-bus-network workload), exact
// length.
func TestTraceGeneratorsWellFormed(t *testing.T) {
	tr := scenarioTree()
	for _, g := range allGens() {
		const objects, n = 7, 2500
		trace := g.gen(rand.New(rand.NewSource(7)), tr, objects, n)
		if len(trace) != n {
			t.Fatalf("%s: %d events, want %d", g.name, len(trace), n)
		}
		w := New(objects, tr.Len())
		for i, ev := range trace {
			if ev.Object < 0 || ev.Object >= objects {
				t.Fatalf("%s event %d: object %d out of range", g.name, i, ev.Object)
			}
			if !tr.IsLeaf(ev.Node) {
				t.Fatalf("%s event %d: node %d is not a leaf", g.name, i, ev.Node)
			}
			if ev.Write {
				w.AddWrites(ev.Object, ev.Node, 1)
			} else {
				w.AddReads(ev.Object, ev.Node, 1)
			}
		}
		if err := w.ValidateHBN(tr); err != nil {
			t.Fatalf("%s: aggregated workload invalid: %v", g.name, err)
		}
	}
}

// The phase structure is real: the per-leaf request distribution of the
// first quarter of each trace differs substantially from the last quarter
// (these are the shifts that make epoch re-solve measurable).
func TestTraceGeneratorsShiftPhases(t *testing.T) {
	tr := scenarioTree()
	for _, g := range traceGens {
		if g.name == "write-storm" {
			continue // write-storm shifts the read/write mix, not locality; checked below
		}
		const n = 8000
		trace := g.gen(rand.New(rand.NewSource(11)), tr, 12, n)
		first := make(map[tree.NodeID]int)
		last := make(map[tree.NodeID]int)
		for _, ev := range trace[:n/4] {
			first[ev.Node]++
		}
		for _, ev := range trace[3*n/4:] {
			last[ev.Node]++
		}
		// L1 distance between the two leaf distributions, normalized; 0 =
		// identical, 2 = disjoint.
		var l1 float64
		for _, leaf := range tr.Leaves() {
			l1 += absf(float64(first[leaf])/float64(n/4) - float64(last[leaf])/float64(n/4))
		}
		if l1 < 0.3 {
			t.Fatalf("%s: first and last quarters nearly identical (L1 %.3f); no phase shift", g.name, l1)
		}
	}
}

// Write-storm's phase shift is in the write fraction: storm windows are
// write-dominated for the victim objects, calm windows are not.
func TestWriteStormShiftsWriteFraction(t *testing.T) {
	tr := scenarioTree()
	const objects, n, storms = 8, 12000, 3
	trace := WriteStorm(rand.New(rand.NewSource(13)), tr, objects, n, storms, 0.05)
	victims := objects / 4
	stormW, stormN, calmW, calmN := 0, 0, 0, 0
	for i, ev := range trace {
		if ev.Object >= victims {
			continue
		}
		if inStorm(i, n, storms) {
			stormN++
			if ev.Write {
				stormW++
			}
		} else {
			calmN++
			if ev.Write {
				calmW++
			}
		}
	}
	stormFrac := float64(stormW) / float64(stormN)
	calmFrac := float64(calmW) / float64(calmN)
	if stormFrac < 0.7 || calmFrac > 0.2 {
		t.Fatalf("storm write fraction %.2f (want > 0.7), calm %.2f (want < 0.2)", stormFrac, calmFrac)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// The churn semantics hold exactly: no failed leaf issues a request at or
// after the failover position, and a brownout concentrates traffic in its
// region.
func TestChurnScenarioBoundaries(t *testing.T) {
	tr := scenarioTree()
	leaves := tr.Leaves()
	const objects, n = 10, 6000

	failed := leaves[len(leaves)-3:]
	isFailed := map[tree.NodeID]bool{}
	for _, v := range failed {
		isFailed[v] = true
	}
	trace := Failover(rand.New(rand.NewSource(3)), tr, objects, n, failed, n/2, 0.1)
	sawFailedEarly := false
	for i, ev := range trace {
		if i >= n/2 && isFailed[ev.Node] {
			t.Fatalf("failover: failed leaf %d requested at position %d", ev.Node, i)
		}
		if i < n/2 && isFailed[ev.Node] {
			sawFailedEarly = true
		}
	}
	if !sawFailedEarly {
		t.Fatal("failover: doomed leaves carried no pre-failure traffic; nothing to orphan")
	}

	region := leaves[:6]
	inRegion := map[tree.NodeID]bool{}
	for _, v := range region {
		inRegion[v] = true
	}
	trace = Brownout(rand.New(rand.NewSource(5)), tr, objects, n, region, 0.7, 0.1)
	hits := 0
	for _, ev := range trace {
		if inRegion[ev.Node] {
			hits++
		}
	}
	if frac := float64(hits) / float64(n); frac < 0.6 {
		t.Fatalf("brownout: region carries only %.2f of traffic, want concentration", frac)
	}
}
