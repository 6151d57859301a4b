package hbn

// One benchmark per experiment of the reproduction suite (E1–E11; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results), plus micro-benchmarks of the pipeline stages for the runtime
// claims of Theorem 4.3. Regenerate the experiment tables with
//
//	go run ./cmd/hbnbench -experiment all
//
// and the benchmark numbers with
//
//	go test -bench=. -benchmem

import (
	"math/rand"
	"testing"

	"hbn/internal/core"
	"hbn/internal/deletion"
	"hbn/internal/dist"
	"hbn/internal/experiments"
	"hbn/internal/mapping"
	"hbn/internal/nibble"
	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := fn(experiments.Config{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("%s: %s", id, res.Verdict)
		}
	}
}

// BenchmarkE1Hardness regenerates the Theorem 2.1 gadget table.
func BenchmarkE1Hardness(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Nibble regenerates the Theorem 3.1 per-edge optimality table.
func BenchmarkE2Nibble(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Deletion regenerates the Observation 3.2 table.
func BenchmarkE3Deletion(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Mapping regenerates the Lemma 4.1 / Invariant 4.2 table.
func BenchmarkE4Mapping(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Approx regenerates the Theorem 4.3 approximation-ratio table.
func BenchmarkE5Approx(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Runtime regenerates the sequential-runtime scaling table.
func BenchmarkE6Runtime(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Distributed regenerates the distributed round-count table.
func BenchmarkE7Distributed(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8RingEquiv regenerates the Figure 1/2 equivalence table.
func BenchmarkE8RingEquiv(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Throughput regenerates the congestion-vs-makespan table.
func BenchmarkE9Throughput(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Ablation regenerates the pipeline ablation table.
func BenchmarkE10Ablation(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Dynamic regenerates the online-strategy table.
func BenchmarkE11Dynamic(b *testing.B) { benchExperiment(b, "E11") }

// --- Micro-benchmarks for the Theorem 4.3 runtime terms ---

// benchInstance builds the deterministic benchmark instance (seed 99,
// random tree, uniform workload). The solver benchmarks use
// benchInstance(1000, 64).
func benchInstance(nodes, objects int) (*tree.Tree, *workload.W) {
	rng := rand.New(rand.NewSource(99))
	t := tree.Random(rng, nodes, 6, 0.4, 16)
	w := workload.Uniform(rng, t, objects, workload.DefaultGen)
	return t, w
}

func BenchmarkNibblePlace100x16(b *testing.B) {
	t, w := benchInstance(100, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nibble.Place(t, w)
	}
}

func BenchmarkNibblePlace1000x64(b *testing.B) {
	t, w := benchInstance(1000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nibble.Place(t, w)
	}
}

func BenchmarkDeletion1000x64(b *testing.B) {
	t, w := benchInstance(1000, 64)
	nib := nibble.Place(t, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := deletion.Run(t, w, nib, deletion.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapping1000x64(b *testing.B) {
	t, w := benchInstance(1000, 64)
	nib := nibble.Place(t, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mod, _, err := deletion.Run(t, w, nib, deletion.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := mapping.Run(t, w, mod, mapping.Options{Root: tree.None}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveEndToEnd1000x64 runs the full pipeline at the default
// parallelism (GOMAXPROCS) on a warm Solver — the steady path of a server
// solving repeatedly. NOTE: re-pointed at the reusable Solver in PR 2 (the
// one-shot measurement continues under BenchmarkSolveEndToEndCold1000x64);
// do not benchstat this name across the PR boundary.
func BenchmarkSolveEndToEnd1000x64(b *testing.B) { benchWarmSolve(b, 0) }

// BenchmarkSolveEndToEnd1000x64Seq pins Parallelism=1 (the sequential
// reference the equivalence tests compare against).
func BenchmarkSolveEndToEnd1000x64Seq(b *testing.B) { benchWarmSolve(b, 1) }

// BenchmarkSolveEndToEnd1000x64P8 pins Parallelism=8.
func BenchmarkSolveEndToEnd1000x64P8(b *testing.B) { benchWarmSolve(b, 8) }

// BenchmarkSolveEndToEndCold1000x64 measures the one-shot convenience
// entry point (a fresh Solver per call, PR 1's measurement methodology).
func BenchmarkSolveEndToEndCold1000x64(b *testing.B) {
	t, w := benchInstance(1000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(t, w, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolve1000x64Delta1 measures the incremental re-solve after a
// single object's frequencies drifted (~1.6% of the workload).
func BenchmarkResolve1000x64Delta1(b *testing.B) { benchResolve(b, 1) }

// BenchmarkResolve1000x64Delta8 measures the incremental re-solve after 8
// of the 64 objects drifted per round.
func BenchmarkResolve1000x64Delta8(b *testing.B) { benchResolve(b, 8) }

// warmSolver returns a solver warmed with two full solves, so all scratch
// and arenas sit at their high-water mark.
func warmSolver(b *testing.B, t *tree.Tree, w *workload.W, opts core.Options) *core.Solver {
	b.Helper()
	s, err := core.NewSolver(t, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Solve(w); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// benchWarmSolve measures the steady path: a warm reusable Solver
// re-solving the 1000x64 instance at the given Parallelism.
func benchWarmSolve(b *testing.B, parallelism int) {
	t, w := benchInstance(1000, 64)
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	s := warmSolver(b, t, w, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(w); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResolve measures the incremental re-solve: each iteration drifts
// delta distinct objects (one read bump on a rotating leaf each) and
// calls Solver.Resolve with exactly that change list.
func benchResolve(b *testing.B, delta int) {
	t, w := benchInstance(1000, 64)
	s := warmSolver(b, t, w, core.DefaultOptions())
	leaves := t.Leaves()
	changed := make([]int, delta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < delta; d++ {
			x := (i*delta + d) % w.NumObjects()
			v := leaves[(i+d)%len(leaves)]
			a := w.At(x, v)
			w.Set(x, v, workload.Access{Reads: a.Reads + 1, Writes: a.Writes})
			changed[d] = x
		}
		if _, err := s.Resolve(changed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate1000x64 measures the steady evaluation path: a reused
// Evaluator writing into a reused Report — the configuration a server
// scoring placements under load runs in. Allocations must stay ~0.
func BenchmarkEvaluate1000x64(b *testing.B) {
	t, w := benchInstance(1000, 64)
	res, err := core.Solve(t, w, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ev := placement.NewEvaluator(t)
	rep := &placement.Report{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateInto(rep, res.Final)
	}
}

// BenchmarkEvaluateCold1000x64 measures the convenience entry point that
// rebuilds evaluator state per call (minus the tree-cached orientation).
func BenchmarkEvaluateCold1000x64(b *testing.B) {
	t, w := benchInstance(1000, 64)
	res, err := core.Solve(t, w, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placement.Evaluate(t, res.Final)
	}
}

// BenchmarkLCACaterpillar measures the O(1) LCA on the topology where the
// old parent-walk was O(n) per query.
func BenchmarkLCACaterpillar(b *testing.B) {
	t := tree.Caterpillar(500, 2, 8, 8)
	r := t.Rooted0()
	idx := r.LCAIndex()
	leaves := t.Leaves()
	u, v := leaves[0], leaves[len(leaves)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx.LCA(u, v) == tree.None {
			b.Fatal("bad LCA")
		}
	}
}

func BenchmarkDistributedNibble200x16(b *testing.B) {
	t, w := benchInstance(200, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dist.NibblePlacement(t, w, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}
