package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hbn/internal/nibble"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// zoo returns the topology matrix the solver properties are checked on:
// the generator shapes (including the deep Caterpillar chains that stress
// the LCA index and the mapping level order) plus random trees.
func zoo(rng *rand.Rand) []struct {
	name string
	tr   *tree.Tree
} {
	type instance = struct {
		name string
		tr   *tree.Tree
	}
	out := []instance{
		{"star", tree.Star(8, 8)},
		{"kary", tree.BalancedKAry(3, 3, 0)},
		{"caterpillar-deep", tree.Caterpillar(40, 2, 8, 8)},
		{"caterpillar-wide", tree.Caterpillar(6, 8, 16, 16)},
		{"sci", tree.SCICluster(4, 5, 16, 8)},
	}
	for i := 0; i < 3; i++ {
		out = append(out, instance{"random", tree.Random(rng, 20+rng.Intn(120), 5, 0.4, 8)})
	}
	return out
}

// A warm Solver re-used across workloads (of varying object counts) must
// be bit-identical to the one-shot Solve at every Parallelism setting: all
// scratch reuse, arena recycling and tracked evaluation is invisible in
// the Result.
func TestSolverWarmReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, inst := range zoo(rng) {
		for _, workers := range []int{0, 1, 2, 8} {
			opts := DefaultOptions()
			opts.Parallelism = workers
			s, err := NewSolver(inst.tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				wrng := rand.New(rand.NewSource(int64(500 + round)))
				w := workload.Uniform(wrng, inst.tr, 1+round*3, workload.DefaultGen)
				got, err := s.Solve(w)
				if err != nil {
					t.Fatalf("%s round %d: warm solve: %v", inst.name, round, err)
				}
				want, err := Solve(inst.tr, w, opts)
				if err != nil {
					t.Fatalf("%s round %d: fresh solve: %v", inst.name, round, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d (Parallelism=%d): warm Solver result differs from one-shot Solve", inst.name, round, workers)
				}
			}
		}
	}
}

// mutate applies a deterministic random drift to k distinct objects of w
// (read/write bumps, occasional zeroing of a whole object) and returns the
// changed list, with a duplicate appended to exercise dedup.
func mutate(rng *rand.Rand, tr *tree.Tree, w *workload.W, k int) []int {
	leaves := tr.Leaves()
	changed := make([]int, 0, k+1)
	for len(changed) < k {
		x := rng.Intn(w.NumObjects())
		already := false
		for _, y := range changed {
			if y == x {
				already = true
				break
			}
		}
		if already {
			continue
		}
		changed = append(changed, x)
		switch rng.Intn(5) {
		case 0: // zero the object entirely (flips it to the no-demand path)
			for _, v := range leaves {
				w.Set(x, v, workload.Access{})
			}
		case 1: // write burst (changes κ_x, so deletion and mapping shift)
			v := leaves[rng.Intn(len(leaves))]
			a := w.At(x, v)
			w.Set(x, v, workload.Access{Reads: a.Reads, Writes: a.Writes + int64(1+rng.Intn(50))})
		default: // read drift on a few leaves
			for i := 0; i < 3; i++ {
				v := leaves[rng.Intn(len(leaves))]
				a := w.At(x, v)
				w.Set(x, v, workload.Access{Reads: a.Reads + int64(rng.Intn(30)), Writes: a.Writes})
			}
		}
	}
	return append(changed, changed[0]) // duplicate entries must be fine
}

// Resolve after mutating a few objects must be bit-identical to a fresh
// Solve on the mutated workload — the incremental path recomputes Steps
// 1-2 for the changed objects only, re-runs Step 3, and patches the
// tracked reports, so every cached piece is exercised over several
// consecutive deltas.
func TestResolveBitIdenticalToFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, inst := range zoo(rng) {
		for _, workers := range []int{0, 1, 2, 8} {
			opts := DefaultOptions()
			opts.Parallelism = workers
			s, err := NewSolver(inst.tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			wrng := rand.New(rand.NewSource(900))
			w := workload.Uniform(wrng, inst.tr, 12, workload.DefaultGen)
			if _, err := s.Solve(w); err != nil {
				t.Fatalf("%s: initial solve: %v", inst.name, err)
			}
			mrng := rand.New(rand.NewSource(int64(7 + workers)))
			for round := 0; round < 6; round++ {
				changed := mutate(mrng, inst.tr, w, 1+round%3)
				got, err := s.Resolve(changed)
				if err != nil {
					t.Fatalf("%s round %d: resolve: %v", inst.name, round, err)
				}
				want, err := Solve(inst.tr, w, opts)
				if err != nil {
					t.Fatalf("%s round %d: fresh solve: %v", inst.name, round, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d (Parallelism=%d): Resolve result differs from fresh Solve", inst.name, round, workers)
				}
			}
		}
	}
}

// A re-solve stepped in ranges of any size is Resolve: each round cuts
// the per-object stages at random sizes (1 object at a time included),
// checks the stage order and the counts Stage reports, and must land on
// the fresh Solve of the mutated workload. A Solve in the middle of a
// stepped re-solve abandons it and re-arms the solver.
func TestStepBitIdenticalToResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, inst := range zoo(rng) {
		for _, workers := range []int{1, 2} {
			opts := DefaultOptions()
			opts.Parallelism = workers
			s, err := NewSolver(inst.tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := workload.Uniform(rand.New(rand.NewSource(901)), inst.tr, 12, workload.DefaultGen)
			if _, err := s.Solve(w); err != nil {
				t.Fatalf("%s: initial solve: %v", inst.name, err)
			}
			mrng := rand.New(rand.NewSource(int64(17 + workers)))
			for round := 0; round < 6; round++ {
				changed := mutate(mrng, inst.tr, w, 1+round%4)
				if err := s.BeginResolve(changed); err != nil {
					t.Fatal(err)
				}
				if err := s.BeginResolve(changed); err == nil {
					t.Fatal("a second BeginResolve while one is in progress should fail")
				}
				var got *Result
				last := StageObjects
				for got == nil {
					st, left := s.Stage()
					if st < last || st == StageDone || left < 1 {
						t.Fatalf("%s round %d: stage %v with %d left after %v", inst.name, round, st, left, last)
					}
					last = st
					n := 1 + mrng.Intn(left)
					if res, err := s.Step(n); err != nil {
						t.Fatal(err)
					} else if res != nil {
						got = res
					} else if st2, left2 := s.Stage(); st2 == st && left2 != left-n {
						t.Fatalf("%s round %d: %v left %d after %d of %d", inst.name, round, st, left2, n, left)
					}
				}
				if st, left := s.Stage(); st != StageDone || left != 0 || last != StageReport {
					t.Fatalf("%s round %d: ended at %v with %d left, last stage %v", inst.name, round, st, left, last)
				}
				want, err := Solve(inst.tr, w, opts)
				if err != nil {
					t.Fatalf("%s round %d: fresh solve: %v", inst.name, round, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d (Parallelism=%d): stepped re-solve differs from fresh Solve", inst.name, round, workers)
				}
			}
			// Abandon a re-solve half way: Solve re-arms, Resolve goes on.
			changed := mutate(mrng, inst.tr, w, 2)
			if err := s.BeginResolve(changed); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Step(1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(w); err != nil {
				t.Fatal(err)
			}
			changed = mutate(mrng, inst.tr, w, 1)
			got, err := s.Resolve(changed)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := Solve(inst.tr, w, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Resolve after an abandoned re-solve differs from fresh Solve", inst.name)
			}
		}
	}
}

// The ablation options reroute whole stages (skip-deletion feeds Step 1
// straight to mapping with AllowOverload, reassign rebuilds the final
// assignment); Resolve must stay bit-identical under each of them.
func TestResolveBitIdenticalAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := tree.Random(rng, 60, 5, 0.4, 8)
	for _, mut := range []func(*Options){
		func(o *Options) { o.SkipDeletion = true },
		func(o *Options) { o.SkipSplitting = true },
		func(o *Options) { o.ReassignNearest = true },
		func(o *Options) { o.CheckInvariants = true },
	} {
		opts := DefaultOptions()
		mut(&opts)
		s, err := NewSolver(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := workload.Uniform(rand.New(rand.NewSource(5)), tr, 8, workload.DefaultGen)
		if _, err := s.Solve(w); err != nil {
			t.Fatal(err)
		}
		mrng := rand.New(rand.NewSource(11))
		for round := 0; round < 4; round++ {
			changed := mutate(mrng, tr, w, 2)
			got, err := s.Resolve(changed)
			if err != nil {
				t.Fatalf("opts %+v round %d: resolve: %v", opts, round, err)
			}
			want, err := Solve(tr, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v round %d: Resolve differs from fresh Solve", opts, round)
			}
		}
	}
}

// An empty (or all-duplicate-of-nothing) change list returns the previous
// result unchanged; bad indices and calls before Solve fail cleanly.
func TestResolveEdgeCases(t *testing.T) {
	tr := tree.Star(6, 4)
	s, err := NewSolver(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve([]int{0}); err == nil {
		t.Fatal("Resolve before Solve should fail")
	}
	w := workload.Uniform(rand.New(rand.NewSource(1)), tr, 4, workload.DefaultGen)
	res, err := s.Solve(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatal("empty Resolve should return the existing result")
	}
	if _, err := s.Resolve([]int{4}); err == nil {
		t.Fatal("out-of-range object should fail")
	}
	if _, err := s.Resolve([]int{-1}); err == nil {
		t.Fatal("negative object should fail")
	}
	// A rejected change list must not leak state: the valid entries seen
	// before the invalid one must still be resolvable afterwards
	// (regression: seen[] flags leaked on the validation-error path, so a
	// later Resolve silently skipped the object and returned stale data).
	w.AddReads(0, tr.Leaves()[1], 123)
	if _, err := s.Resolve([]int{0, 4}); err == nil {
		t.Fatal("mixed valid/out-of-range list should fail")
	}
	got2, err := s.Resolve([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(tr, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("Resolve after a rejected change list returned stale results")
	}
	// Resolve applies the same leaf-only workload check a fresh Solve
	// would, restricted to the changed objects: demand on an inner node
	// must be rejected, and the rejection must not poison the solver.
	buses := tr.Buses()
	w.Set(1, buses[0], workload.Access{Reads: 5})
	if _, err := s.Resolve([]int{1}); err == nil {
		t.Fatal("Resolve should reject inner-node demand like a fresh Solve does")
	}
	w.Set(1, buses[0], workload.Access{})
	if _, err := s.Resolve([]int{1}); err != nil {
		t.Fatal(err)
	}
	// A solve with an externally computed nibble result has no per-object
	// Step-1 state to patch; Resolve must refuse.
	nib := nibble.Place(tr, w)
	if _, err := s.solve(w, nib); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve([]int{0}); err == nil {
		t.Fatal("Resolve after an external-nibble solve should fail")
	}
	// A fresh full Solve re-arms the incremental path.
	if _, err := s.Solve(w); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve([]int{0}); err != nil {
		t.Fatal(err)
	}
}

// The steady paths must stay (nearly) allocation-free: this is the alloc
// regression guard the CI bench-smoke step runs. With the per-object record
// store a warm Solve measures 25 allocs/op and a 1-object Resolve 14 on the
// 1000x64 instance (a cold run makes >1400); what remains is the Step-3
// output placement, the bottleneck strings and the error/trace plumbing,
// none of it per copy. The bounds leave room for toolchain drift only.
func TestSolverSteadyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on the 1000-node instance")
	}
	s, tr, w := warmAllocSolver(t)
	solveAllocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Solve(w); err != nil {
			t.Fatal(err)
		}
	})
	if solveAllocs > 50 {
		t.Errorf("warm Solve allocates %.0f allocs/op, want <= 50", solveAllocs)
	}
	leaves := tr.Leaves()
	i := 0
	resolveAllocs := testing.AllocsPerRun(5, func() {
		x := i % w.NumObjects()
		v := leaves[i%len(leaves)]
		a := w.At(x, v)
		w.Set(x, v, workload.Access{Reads: a.Reads + 1, Writes: a.Writes})
		i++
		if _, err := s.Resolve([]int{x}); err != nil {
			t.Fatal(err)
		}
	})
	if resolveAllocs > 50 {
		t.Errorf("warm Resolve allocates %.0f allocs/op, want <= 50", resolveAllocs)
	}
}

// An epoch pass re-solves most objects at once. When every object's output
// sizes are unchanged, the record store rewrites each slab in place, so a
// warm Resolve allocates the same small constant whether it re-solves a
// handful of objects or all of them — nothing is allocated per object.
func TestSolverEpochResolveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on the 1000-node instance")
	}
	s, _, w := warmAllocSolver(t)
	all := make([]int, w.NumObjects())
	for x := range all {
		all[x] = x
	}
	if _, err := s.Resolve(all); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, len(all) / 4, len(all)} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Resolve(all[:n]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 50 {
			t.Errorf("warm Resolve of %d unchanged-size objects allocates %.0f allocs/op, want <= 50", n, allocs)
		}
	}
}

// warmAllocSolver returns a solver on the 1000x64 instance after two warm
// solves (slabs and scratch at their high-water mark).
func warmAllocSolver(t *testing.T) (*Solver, *tree.Tree, *workload.W) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	tr := tree.Random(rng, 1000, 6, 0.4, 16)
	w := workload.Uniform(rng, tr, 64, workload.DefaultGen)
	s, err := NewSolver(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Solve(w); err != nil {
			t.Fatal(err)
		}
	}
	return s, tr, w
}
