package placement

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

func randomPlacement(rng *rand.Rand, tr *tree.Tree, w *workload.W) *P {
	copies := make([][]tree.NodeID, w.NumObjects())
	ref := make([][]tree.NodeID, w.NumObjects())
	leaves := tr.Leaves()
	for x := range copies {
		k := 1 + rng.Intn(3)
		perm := rng.Perm(len(leaves))
		for i := 0; i < k; i++ {
			copies[x] = append(copies[x], leaves[perm[i]])
		}
		ref[x] = make([]tree.NodeID, tr.Len())
		for v := range ref[x] {
			ref[x][v] = copies[x][rng.Intn(len(copies[x]))]
		}
	}
	p, err := FromAssignment(tr, w, copies, ref)
	if err != nil {
		panic(err)
	}
	return p
}

func reportsEqual(a, b *Report) bool {
	return reflect.DeepEqual(a.EdgeLoad, b.EdgeLoad) &&
		reflect.DeepEqual(a.BusLoadX2, b.BusLoadX2) &&
		a.TotalLoad == b.TotalLoad &&
		a.Congestion.Eq(b.Congestion) &&
		a.BottleneckEdge == b.BottleneckEdge &&
		a.BottleneckBus == b.BottleneckBus
}

// A single Evaluator reused across many different placements must agree
// with a fresh evaluation every time — scratch state may not leak between
// calls, whether through Evaluate, EvaluateInto (with a recycled Report),
// EvaluateMany or EvaluateParallel.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		tr := tree.Random(rng, 10+rng.Intn(60), 5, 0.4, 8)
		w := workload.Uniform(rng, tr, 4, workload.DefaultGen)
		ev := NewEvaluator(tr)
		rep := &Report{}
		var ps []*P
		for i := 0; i < 5; i++ {
			ps = append(ps, randomPlacement(rng, tr, w))
		}
		many := ev.EvaluateMany(ps)
		for i, p := range ps {
			fresh := Evaluate(tr, p)
			if got := ev.Evaluate(p); !reportsEqual(got, fresh) {
				t.Fatalf("trial %d placement %d: reused Evaluate differs", trial, i)
			}
			ev.EvaluateInto(rep, p)
			if !reportsEqual(rep, fresh) {
				t.Fatalf("trial %d placement %d: EvaluateInto with recycled report differs", trial, i)
			}
			if !reportsEqual(many[i], fresh) {
				t.Fatalf("trial %d placement %d: EvaluateMany differs", trial, i)
			}
			for _, workers := range []int{2, 5} {
				if got := EvaluateParallel(tr, p, workers); !reportsEqual(got, fresh) {
					t.Fatalf("trial %d placement %d: EvaluateParallel(%d) differs", trial, i, workers)
				}
			}
		}
	}
}

// The incremental tracked evaluation must match a full re-evaluation after
// any subset of objects changed.
func TestReevaluateMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		tr := tree.Random(rng, 10+rng.Intn(50), 5, 0.4, 8)
		w := workload.Uniform(rng, tr, 6, workload.DefaultGen)
		p := randomPlacement(rng, tr, w)
		ev := NewEvaluator(tr)
		if got, fresh := ev.EvaluateTracked(p), Evaluate(tr, p); !reportsEqual(got, fresh) {
			t.Fatalf("trial %d: tracked initial evaluation differs", trial)
		}
		other := randomPlacement(rng, tr, w)
		for round := 0; round < 6; round++ {
			var changed []int
			for x := 0; x < p.NumObjects; x++ {
				if rng.Intn(2) == 0 {
					p.Copies[x] = other.Copies[x]
					changed = append(changed, x)
					if rng.Intn(3) == 0 {
						changed = append(changed, x) // duplicates must be fine
					}
				}
			}
			got := ev.Reevaluate(p, changed)
			fresh := Evaluate(tr, p)
			if !reportsEqual(got, fresh) {
				t.Fatalf("trial %d round %d: incremental re-evaluation differs (changed %v)", trial, round, changed)
			}
			other = randomPlacement(rng, tr, w)
		}
	}
}

// Parallel re-evaluation must equal the sequential one field for field —
// the report (bottleneck string included), the tracked total and every
// per-object row — at every worker count, over rounds of changed lists
// with duplicates.
func TestReevaluateParallelMatchesSequential(t *testing.T) {
	// Four real workers even on a smaller machine: par.Workers caps the
	// requested count at GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 6; trial++ {
		tr := tree.Random(rng, 20+rng.Intn(80), 5, 0.4, 8)
		w := workload.Uniform(rng, tr, 24, workload.DefaultGen)
		p := randomPlacement(rng, tr, w)
		workers := []int{1, 2, 4}
		evs := make([]*Evaluator, len(workers))
		reps := make([]*Report, len(workers))
		for i, n := range workers {
			evs[i] = NewEvaluator(tr)
			reps[i] = evs[i].EvaluateTrackedInto(&Report{}, p, n)
		}
		for round := 0; round < 6; round++ {
			other := randomPlacement(rng, tr, w)
			var changed []int
			for x := 0; x < p.NumObjects; x++ {
				if rng.Intn(3) == 0 {
					p.Copies[x] = other.Copies[x]
					changed = append(changed, x)
				}
			}
			if len(changed) > 0 {
				changed = append(changed, changed[rng.Intn(len(changed))]) // duplicates must be fine
			}
			for i, n := range workers {
				evs[i].ReevaluateInto(reps[i], p, changed, n)
			}
			for i := 1; i < len(workers); i++ {
				if !reflect.DeepEqual(reps[i], reps[0]) {
					t.Fatalf("trial %d round %d: %d-worker report differs from sequential:\n  %+v\n  %+v", trial, round, workers[i], reps[i], reps[0])
				}
				if !reflect.DeepEqual(evs[i].tracked, evs[0].tracked) || !reflect.DeepEqual(evs[i].perObj, evs[0].perObj) {
					t.Fatalf("trial %d round %d: %d-worker tracked rows differ from sequential", trial, round, workers[i])
				}
			}
			if fresh := Evaluate(tr, p); !reportsEqual(reps[0], fresh) {
				t.Fatalf("trial %d round %d: re-evaluation differs from a full evaluation", trial, round)
			}
		}
	}
}

// The steady evaluation path must not allocate: EvaluateInto with a warm
// evaluator and a recycled report is the configuration the solver loops
// and the benchmark measure.
func TestEvaluateIntoDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := tree.Random(rng, 200, 5, 0.4, 8)
	w := workload.Uniform(rng, tr, 8, workload.DefaultGen)
	p := randomPlacement(rng, tr, w)
	ev := NewEvaluator(tr)
	rep := &Report{}
	ev.EvaluateInto(rep, p) // warm-up: buffers, LCA index, traversal
	if avg := testing.AllocsPerRun(20, func() { ev.EvaluateInto(rep, p) }); avg > 0 {
		t.Fatalf("EvaluateInto allocates %.1f times per call on the steady path", avg)
	}
}
