package dynamic

import (
	"math/rand"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// ImportLoads carries load history and request counts into a fresh
// strategy exactly, and NewOfflineTrackerWith starts a tracker from
// pre-observed frequencies — the two carry-over primitives of the serving
// layer's topology reconfiguration.
func TestImportLoadsAndTrackerSeed(t *testing.T) {
	tr := tree.SCICluster(2, 3, 8, 4)
	const objects = 4
	src := MustNew(tr, objects, Options{Threshold: 2})
	reqs := RandomSequence(rand.New(rand.NewSource(7)), tr, objects, 500, 0.1)
	src.ServeAll(reqs)

	dst := MustNew(tr, objects, Options{Threshold: 2})
	dst.ImportLoads(src.EdgeLoad, src.MoveLoad(), src.Requests())
	for e := range src.EdgeLoad {
		if dst.EdgeLoad[e] != src.EdgeLoad[e] {
			t.Fatalf("edge %d: load %d, want %d", e, dst.EdgeLoad[e], src.EdgeLoad[e])
		}
	}
	if !int64SlicesEqual(dst.ServiceLoad(), src.ServiceLoad()) {
		t.Fatal("service loads not carried over")
	}
	if dst.Requests() != src.Requests() {
		t.Fatalf("requests %d, want %d", dst.Requests(), src.Requests())
	}

	w := workload.New(objects, tr.Len())
	w.AddTrace(reqs)
	ot := NewOfflineTrackerWith(tr, w.Clone(), nil)
	for x := 0; x < objects; x++ {
		for v := 0; v < tr.Len(); v++ {
			if ot.Workload().At(x, tree.NodeID(v)) != w.At(x, tree.NodeID(v)) {
				t.Fatalf("tracker row (%d,%d) not seeded", x, v)
			}
		}
	}
	// A seeded tracker keeps recording on top of the seed.
	ot.RecordBatch([]Request{{Object: 0, Node: tr.Leaves()[0]}})
	want := w.At(0, tr.Leaves()[0])
	want.Reads++
	if got := ot.Workload().At(0, tr.Leaves()[0]); got != want {
		t.Fatalf("post-seed record: %+v, want %+v", got, want)
	}
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
