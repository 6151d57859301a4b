package core

import (
	"math/rand"
	"testing"

	"hbn/internal/opt"
	"hbn/internal/ratio"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

func solve(t *testing.T, tr *tree.Tree, w *workload.W, opts Options) *Result {
	t.Helper()
	res, err := Solve(tr, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolveProducesValidLeafPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 80; trial++ {
		tr := tree.Random(rng, 5+rng.Intn(40), 5, 0.4, 8)
		w := workload.Uniform(rng, tr, 5, workload.DefaultGen)
		res := solve(t, tr, w, DefaultOptions())
		if !res.Final.LeafOnly(tr) {
			t.Fatal("final placement not leaf-only")
		}
		if err := res.Final.Validate(tr, w); err != nil {
			t.Fatal(err)
		}
	}
}

// Theorem 4.3 against the exact optimum on exhaustively-solvable
// instances: C ≤ 7·C_opt.
func TestApproximationRatioVsExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	lim := opt.Limits{MaxHosts: 5, MaxRequesters: 4, MaxConfigs: 500000}
	worst := 0.0
	trials := 0
	for trials < 40 {
		tr := tree.Random(rng, 4, 4, 0.3, 4)
		if tr.NumLeaves() > 5 {
			continue
		}
		numObj := 1 + rng.Intn(2)
		w := workload.New(numObj, tr.Len())
		leaves := tr.Leaves()
		for x := 0; x < numObj; x++ {
			n := 1 + rng.Intn(min(4, len(leaves)))
			perm := rng.Perm(len(leaves))
			for i := 0; i < n; i++ {
				w.Set(x, leaves[perm[i]], workload.Access{
					Reads:  rng.Int63n(8),
					Writes: rng.Int63n(5),
				})
			}
		}
		if totalDemand(w) == 0 {
			continue
		}
		trials++
		res := solve(t, tr, w, DefaultOptions())
		sol, err := opt.ExactCongestion(tr, w, lim, res.Report.Congestion)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Congestion.Less(sol.Congestion) {
			t.Fatalf("trial %d: 'optimal' %v worse than achieved %v", trials, sol.Congestion, res.Report.Congestion)
		}
		// C ≤ 7·C_opt exactly.
		bound := ratio.New(7*sol.Congestion.Num, sol.Congestion.Den)
		if sol.Congestion.Num > 0 && bound.Less(res.Report.Congestion) {
			t.Fatalf("trial %d: congestion %v > 7×optimal %v", trials, res.Report.Congestion, sol.Congestion)
		}
		if sol.Congestion.Num > 0 {
			r := res.Report.Congestion.Float() / sol.Congestion.Float()
			if r > worst {
				worst = r
			}
		}
		// The certified lower bound must not exceed the true optimum.
		if sol.Congestion.Less(res.LowerBound()) {
			t.Fatalf("trial %d: lower bound %v > optimum %v", trials, res.LowerBound(), sol.Congestion)
		}
	}
	t.Logf("worst observed ratio vs exact optimum: %.3f", worst)
}

// Theorem 4.3 at scale: against the certified lower bound the ratio stays
// ≤ 7 on large instances as well (plus the per-edge Lemma 4.5 bound is
// checked in mapping tests; here we check the end-to-end congestion).
func TestApproximationRatioVsLowerBoundAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	worst := 0.0
	for trial := 0; trial < 30; trial++ {
		tr := tree.Random(rng, 30+rng.Intn(200), 6, 0.4, 16)
		w := workload.Zipf(rng, tr, 20, 1.1, workload.DefaultGen)
		res := solve(t, tr, w, DefaultOptions())
		if res.LowerBound().Num == 0 {
			continue
		}
		r := res.ApproxRatio()
		if r > worst {
			worst = r
		}
		if r > 7.0+1e-9 {
			t.Fatalf("trial %d: ratio vs lower bound = %.3f > 7", trial, r)
		}
	}
	t.Logf("worst observed ratio vs lower bound: %.3f", worst)
}

func TestNibbleCongestionIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 50; trial++ {
		tr := tree.Random(rng, 10+rng.Intn(40), 5, 0.4, 8)
		w := workload.Uniform(rng, tr, 4, workload.DefaultGen)
		res := solve(t, tr, w, DefaultOptions())
		if res.Report.Congestion.Less(res.NibbleReport().Congestion) {
			t.Fatalf("trial %d: final congestion %v below the nibble lower bound %v",
				trial, res.Report.Congestion, res.NibbleReport().Congestion)
		}
	}
}

func TestSolveRejectsInvalidInputs(t *testing.T) {
	// Non-HBN tree.
	b := tree.NewBuilder()
	p0 := b.AddProcessor("")
	p1 := b.AddProcessor("")
	p2 := b.AddProcessor("")
	b.Connect(p0, p1, 1)
	b.Connect(p1, p2, 1)
	badTree := b.MustBuild()
	w := workload.New(1, badTree.Len())
	if _, err := Solve(badTree, w, DefaultOptions()); err == nil {
		t.Fatal("non-HBN tree accepted")
	}
	// Bus demand.
	tr := tree.Star(3, 10)
	w2 := workload.New(1, tr.Len())
	w2.AddReads(0, 0, 1)
	if _, err := Solve(tr, w2, DefaultOptions()); err == nil {
		t.Fatal("bus demand accepted")
	}
}

func TestAblationsRunAndStayValid(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		tr := tree.Random(rng, 10+rng.Intn(30), 5, 0.4, 8)
		w := workload.Uniform(rng, tr, 4, workload.DefaultGen)
		for _, opts := range []Options{
			{SkipDeletion: true, MappingRoot: tree.None},
			{SkipSplitting: true, MappingRoot: tree.None},
			{ReassignNearest: true, MappingRoot: tree.None},
		} {
			res := solve(t, tr, w, opts)
			if !res.Final.LeafOnly(tr) {
				t.Fatal("ablation produced non-leaf placement")
			}
			if err := res.Final.Validate(tr, w); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestLeafOnlyNibbleSkipsMapping(t *testing.T) {
	// All-write single-leaf demand: nibble places one copy on that leaf;
	// nothing needs mapping.
	tr := tree.Star(4, 10)
	w := workload.New(1, tr.Len())
	w.AddWrites(0, 1, 10)
	res := solve(t, tr, w, DefaultOptions())
	if res.MappedObjects != 0 {
		t.Fatalf("MappedObjects = %d, want 0", res.MappedObjects)
	}
	if res.MappingTrace != nil {
		t.Fatal("mapping ran unnecessarily")
	}
	// The placement must equal the nibble optimum.
	if !res.Report.Congestion.Eq(res.NibbleReport().Congestion) {
		t.Fatalf("congestion %v ≠ nibble %v", res.Report.Congestion, res.NibbleReport().Congestion)
	}
}

func TestZeroDemandWorkload(t *testing.T) {
	tr := tree.Star(4, 10)
	w := workload.New(2, tr.Len())
	res := solve(t, tr, w, DefaultOptions())
	if res.Report.Congestion.Num != 0 {
		t.Fatal("zero demand produced load")
	}
	if res.ApproxRatio() != 1 {
		t.Fatalf("ratio = %v, want 1", res.ApproxRatio())
	}
}

func TestCheckInvariantsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	tr := tree.Random(rng, 15, 4, 0.4, 8)
	w := workload.Uniform(rng, tr, 3, workload.DefaultGen)
	opts := DefaultOptions()
	opts.CheckInvariants = true
	res := solve(t, tr, w, opts)
	if res.MappedObjects > 0 && res.MappingTrace.InvariantChecks == 0 {
		t.Fatal("invariant checks did not run")
	}
}

func TestMappingRootZeroValueOptions(t *testing.T) {
	// The zero Options value roots the mapping at node 0 — legal, since
	// the paper permits an arbitrary root.
	rng := rand.New(rand.NewSource(57))
	tr := tree.Random(rng, 15, 4, 0.4, 8)
	w := workload.Uniform(rng, tr, 3, workload.DefaultGen)
	res := solve(t, tr, w, Options{})
	if err := res.Final.Validate(tr, w); err != nil {
		t.Fatal(err)
	}
}

func totalDemand(w *workload.W) int64 {
	var n int64
	for x := 0; x < w.NumObjects(); x++ {
		n += w.TotalWeight(x)
	}
	return n
}
