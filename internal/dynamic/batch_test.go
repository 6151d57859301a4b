package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// batchTrees is the topology matrix the batching properties run on.
func batchTrees(rng *rand.Rand) []*tree.Tree {
	return []*tree.Tree{
		tree.Star(8, 8),
		tree.BalancedKAry(2, 3, 0),
		tree.Caterpillar(6, 3, 8, 8),
		tree.SCICluster(3, 4, 16, 8),
		tree.Random(rng, 15+rng.Intn(40), 4, 0.4, 8),
	}
}

// batchScenarios generates the four phase-shifting traces plus the legacy
// random sequence, all at property-test scale.
func batchScenarios(rng *rand.Rand, tr *tree.Tree, objects, n int) map[string][]Request {
	return map[string][]Request{
		"drifting-zipf": workload.DriftingZipf(rng, tr, objects, n, 3, 1.0, 0.05),
		"diurnal":       workload.Diurnal(rng, tr, objects, n, n/3, 0.08),
		"hotspot":       workload.HotspotMigration(rng, tr, objects, n, 3, 0.7, 0.05),
		"write-storm":   workload.WriteStorm(rng, tr, objects, n, 2, 0.05),
		"random":        RandomSequence(rng, tr, objects, n, 0.2),
	}
}

// requireEqualState fails unless the two strategies agree on every
// observable: per-edge loads, copy sets, request count, and the effective
// read counter of every (object, edge) pair. This is the "bit-identical"
// contract of ServeBatch.
func requireEqualState(t *testing.T, ctx string, want, got *Strategy) {
	t.Helper()
	if want.Requests() != got.Requests() {
		t.Fatalf("%s: requests %d != %d", ctx, got.Requests(), want.Requests())
	}
	wantSvc, gotSvc := want.ServiceLoad(), got.ServiceLoad()
	for e := range want.EdgeLoad {
		if want.EdgeLoad[e] != got.EdgeLoad[e] || wantSvc[e] != gotSvc[e] {
			t.Fatalf("%s: edge %d loads (%d,%d) != (%d,%d)", ctx, e,
				got.EdgeLoad[e], gotSvc[e], want.EdgeLoad[e], wantSvc[e])
		}
	}
	for x := 0; x < want.NumObjects(); x++ {
		if w, g := want.Copies(x), got.Copies(x); !slices.Equal(w, g) {
			t.Fatalf("%s: object %d copies %v != %v", ctx, x, g, w)
		}
		for e := 0; e < want.t.NumEdges(); e++ {
			if w, g := want.readCount(x, tree.EdgeID(e)), got.readCount(x, tree.EdgeID(e)); w != g {
				t.Fatalf("%s: object %d edge %d read counter %d != %d", ctx, x, e, g, w)
			}
		}
		w := append([]tree.EdgeID(nil), want.bcast[x]...)
		g := append([]tree.EdgeID(nil), got.bcast[x]...)
		slices.Sort(w)
		slices.Sort(g)
		if !slices.Equal(w, g) {
			t.Fatalf("%s: object %d broadcast edges %v != %v", ctx, x, g, w)
		}
	}
}

// ServeBatch must be equivalent to the sequential Serve loop — same final
// loads, copy sets, read counters and total returned cost — across the
// topology zoo, all four workload scenarios, and thresholds {2, 3, 8},
// under random uneven batch splits.
func TestServeBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, tr := range batchTrees(rng) {
		const objects = 8
		for name, reqs := range batchScenarios(rng, tr, objects, 1200) {
			for _, threshold := range []int{2, 3, 8} {
				ref := MustNew(tr, objects, Options{Threshold: threshold})
				refCost := ref.ServeAll(reqs)

				s := MustNew(tr, objects, Options{Threshold: threshold})
				var cost int64
				for lo := 0; lo < len(reqs); {
					hi := lo + 1 + rng.Intn(200)
					if hi > len(reqs) {
						hi = len(reqs)
					}
					cost += s.ServeBatch(reqs[lo:hi])
					lo = hi
				}
				ctx := name
				if cost != refCost {
					t.Fatalf("%s threshold=%d: batched cost %d != sequential %d", ctx, threshold, cost, refCost)
				}
				requireEqualState(t, ctx, ref, s)
			}
		}
	}
}

// ServeBatch equivalence must survive interleaved AdoptCopySet calls (the
// epoch re-solve path): adopted sets need not be connected, which is the
// one case where the broadcast edge set is rebuilt rather than maintained.
func TestServeBatchMatchesSequentialWithAdoption(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	for trial := 0; trial < 8; trial++ {
		tr := tree.Random(rng, 12+rng.Intn(30), 4, 0.4, 8)
		leaves := tr.Leaves()
		const objects = 5
		reqs := RandomSequence(rng, tr, objects, 900, 0.25)

		ref := MustNew(tr, objects, Options{Threshold: 2})
		s := MustNew(tr, objects, Options{Threshold: 2})
		var refCost, cost int64
		for lo := 0; lo < len(reqs); {
			hi := lo + 1 + rng.Intn(150)
			if hi > len(reqs) {
				hi = len(reqs)
			}
			for _, r := range reqs[lo:hi] {
				refCost += ref.Serve(r)
			}
			cost += s.ServeBatch(reqs[lo:hi])
			// Adopt a random (unsorted, possibly non-connected) copy set
			// for one object on both strategies.
			x := rng.Intn(objects)
			k := 1 + rng.Intn(4)
			nodes := make([]tree.NodeID, 0, k)
			for i := 0; i < k; i++ {
				nodes = append(nodes, leaves[rng.Intn(len(leaves))])
			}
			if ref.AdoptCopySet(x, nodes) != s.AdoptCopySet(x, nodes) {
				t.Fatalf("trial %d: adoption movement diverged", trial)
			}
			lo = hi
		}
		if cost != refCost {
			t.Fatalf("trial %d: batched cost %d != sequential %d", trial, cost, refCost)
		}
		requireEqualState(t, "adoption", ref, s)
	}
}

// record is RecordBatch's per-request reference: the cell's first touch
// since the fold marked, one frequency addition per request, and the
// object queued on its first touch since the drain.
func record(ot *OfflineTracker, r Request) {
	ot.since.Touch(r.Object, r.Node, ot.w.At(r.Object, r.Node))
	if r.Write {
		ot.w.AddWrites(r.Object, r.Node, 1)
	} else {
		ot.w.AddReads(r.Object, r.Node, 1)
	}
	if !ot.drift[r.Object] {
		ot.drift[r.Object] = true
		ot.driftQ = append(ot.driftQ, r.Object)
	}
}

// OfflineTracker.RecordBatch must be equivalent to the per-request record
// loop — same frequency rows, counts since the fold and DrainDrifted
// order — across the topology zoo and all four workload scenarios, under
// random uneven batch splits, with drift drains and folds interleaved so
// the queue and the since-fold state are exercised mid-stream.
func TestRecordBatchMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	for _, tr := range batchTrees(rng) {
		const objects = 8
		for name, reqs := range batchScenarios(rng, tr, objects, 1200) {
			ref := NewOfflineTracker(tr, objects)
			bat := NewOfflineTracker(tr, objects)
			var refDrift, batDrift []int
			for lo, step := 0, 0; lo < len(reqs); step++ {
				hi := min(lo+1+rng.Intn(200), len(reqs))
				for _, r := range reqs[lo:hi] {
					record(ref, r)
				}
				bat.RecordBatch(reqs[lo:hi])
				lo = hi
				if step%3 == 0 {
					refDrift = ref.DrainDrifted(refDrift[:0])
					batDrift = bat.DrainDrifted(batDrift[:0])
					if !slices.Equal(refDrift, batDrift) {
						t.Fatalf("%s step %d: drift order %v != %v", name, step, batDrift, refDrift)
					}
					if step%2 == 0 {
						ref.since.Forget(refDrift, ref.w)
						bat.since.Forget(batDrift, bat.w)
					}
				}
			}
			rb, bb := make([]workload.Access, tr.Len()), make([]workload.Access, tr.Len())
			for x := 0; x < objects; x++ {
				if !slices.Equal(ref.since.LastFold(x, ref.w.Row(x), rb), bat.since.LastFold(x, bat.w.Row(x), bb)) {
					t.Fatalf("%s: object %d counts as of the last fold diverge", name, x)
				}
			}
			if !slices.Equal(ref.DrainDrifted(nil), bat.DrainDrifted(nil)) {
				t.Fatalf("%s: final drift order diverges", name)
			}
			for x := 0; x < objects; x++ {
				if !slices.Equal(ref.Workload().Row(x), bat.Workload().Row(x)) {
					t.Fatalf("%s: object %d workload row diverges", name, x)
				}
			}
		}
	}
}

// steinerReference recomputes object x's write-broadcast edges from
// scratch: edge e is a Steiner edge of the copy set iff copies exist on
// both sides of e (counted over the node-0 orientation).
func steinerReference(tr *tree.Tree, s *Strategy, x int) []tree.EdgeID {
	copies := s.Copies(x)
	if len(copies) <= 1 {
		return nil
	}
	r := tr.Rooted0()
	below := make([]int, tr.Len())
	for _, v := range copies {
		below[v] = 1
	}
	var out []tree.EdgeID
	steps := r.Steps()
	for i := len(steps) - 1; i >= 1; i-- {
		st := steps[i]
		if c := below[st.V]; c > 0 {
			if c < len(copies) {
				out = append(out, st.Edge)
			}
			below[st.Parent] += c
		}
	}
	slices.Sort(out)
	return out
}

// The incrementally maintained broadcast edge set must equal the Steiner
// edges of the copy set recomputed from scratch after every request and
// every adoption — including adoptions of non-connected sets.
func TestBroadcastEdgesMatchSteinerRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	for trial := 0; trial < 10; trial++ {
		tr := tree.Random(rng, 10+rng.Intn(35), 4, 0.4, 8)
		leaves := tr.Leaves()
		const objects = 3
		s := MustNew(tr, objects, Options{Threshold: 1 + rng.Intn(3)})
		reqs := RandomSequence(rng, tr, objects, 400, 0.2)
		check := func(step int) {
			for x := 0; x < objects; x++ {
				got := append([]tree.EdgeID(nil), s.bcast[x]...)
				slices.Sort(got)
				want := steinerReference(tr, s, x)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d object %d: broadcast %v != steiner %v (copies %v)",
						trial, step, x, got, want, s.Copies(x))
				}
			}
		}
		for i, r := range reqs {
			s.Serve(r)
			check(i)
			if i%37 == 0 {
				x := rng.Intn(objects)
				k := 1 + rng.Intn(4)
				nodes := make([]tree.NodeID, 0, k)
				for j := 0; j < k; j++ {
					nodes = append(nodes, leaves[rng.Intn(len(leaves))])
				}
				s.AdoptCopySet(x, nodes)
				check(i)
			}
		}
	}
}

func benchStrategyTrace() (*tree.Tree, []Request) {
	t := tree.SCICluster(8, 8, 32, 16)
	return t, workload.DriftingZipf(rand.New(rand.NewSource(2000)), t, 256, 200000, 6, 1.0, 0.03)
}

// BenchmarkServeLoop1024 is the per-request Serve loop: one warm strategy
// serving the drifting-Zipf trace 1024 requests at a time.
func BenchmarkServeLoop1024(b *testing.B) {
	t, trace := benchStrategyTrace()
	s := MustNew(t, 256, Options{Threshold: 8})
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for _, r := range trace[n : n+1024] {
			s.Serve(r)
		}
		n = (n + 1024) % (len(trace) - 1024)
	}
}

// BenchmarkServeBatch1024 is ServeBatch on the same trace and batch size.
func BenchmarkServeBatch1024(b *testing.B) {
	t, trace := benchStrategyTrace()
	s := MustNew(t, 256, Options{Threshold: 8})
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		s.ServeBatch(trace[n : n+1024])
		n = (n + 1024) % (len(trace) - 1024)
	}
}

// An empty batch is a no-op, and ServeBatch panics on out-of-range objects
// exactly like Serve — before serving anything.
func TestServeBatchValidation(t *testing.T) {
	tr := tree.Star(3, 8)
	s := MustNew(tr, 1, Options{Threshold: 1})
	if got := s.ServeBatch(nil); got != 0 {
		t.Fatalf("empty batch cost %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		if s.Requests() != 0 {
			t.Fatalf("panicking batch must not serve: %d requests", s.Requests())
		}
	}()
	s.ServeBatch([]Request{{Object: 0, Node: 1}, {Object: 9, Node: 1}})
}
