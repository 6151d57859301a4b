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
	"hbn/internal/serve"
	"hbn/internal/solverbench"
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

func benchInstance(nodes, objects int) (*tree.Tree, *workload.W) {
	return solverbench.Instance(nodes, objects)
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

// The solver benchmark bodies live in internal/solverbench, shared with
// cmd/hbnbench -solverbench so both emit identical measurements under
// these names (the BENCH_*.json trajectory depends on that).

// BenchmarkSolveEndToEnd1000x64 runs the full pipeline at the default
// parallelism (GOMAXPROCS) on a warm Solver — the steady path of a server
// solving repeatedly. NOTE: re-pointed at the reusable Solver in PR 2 (the
// one-shot measurement continues under BenchmarkSolveEndToEndCold1000x64);
// do not benchstat this name across the PR boundary.
func BenchmarkSolveEndToEnd1000x64(b *testing.B) { solverbench.WarmSolve(b, 0) }

// BenchmarkSolveEndToEnd1000x64Seq pins Parallelism=1 (the sequential
// reference the equivalence tests compare against).
func BenchmarkSolveEndToEnd1000x64Seq(b *testing.B) { solverbench.WarmSolve(b, 1) }

// BenchmarkSolveEndToEnd1000x64P8 pins Parallelism=8.
func BenchmarkSolveEndToEnd1000x64P8(b *testing.B) { solverbench.WarmSolve(b, 8) }

// BenchmarkSolveEndToEndCold1000x64 measures the one-shot convenience
// entry point (a fresh Solver per call, PR 1's measurement methodology).
func BenchmarkSolveEndToEndCold1000x64(b *testing.B) { solverbench.ColdSolve(b) }

// BenchmarkResolve1000x64Delta1 measures the incremental re-solve after a
// single object's frequencies drifted (~1.6% of the workload).
func BenchmarkResolve1000x64Delta1(b *testing.B) { solverbench.Resolve(b, 1) }

// BenchmarkResolve1000x64Delta8 measures the incremental re-solve after 8
// of the 64 objects drifted per round.
func BenchmarkResolve1000x64Delta8(b *testing.B) { solverbench.Resolve(b, 8) }

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

// --- Serving-path benchmarks (PR 4) ---

// benchIngest measures steady-state Cluster.Ingest throughput on the
// drifting-Zipf trace (1024-request batches, threshold 8, epoch re-solve
// off), with telemetry on or off.
func benchIngest(b *testing.B, noTelemetry bool) {
	b.Helper()
	t := tree.SCICluster(8, 8, 32, 16)
	const objects, batch = 256, 1024
	trace := workload.DriftingZipf(rand.New(rand.NewSource(2000)), t, objects, 200000, 6, 1.0, 0.03)
	c, err := serve.NewCluster(t, objects, serve.Options{Shards: 1, Threshold: 8, NoTelemetry: noTelemetry})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if _, err := c.Ingest(trace[n : n+batch]); err != nil {
			b.Fatal(err)
		}
		n = (n + batch) % (len(trace) - batch)
	}
}

// BenchmarkIngestBatch1024 is the serving hot path (pooled partition
// scratch, ServeBatch, RecordBatch run folding) with telemetry at its
// default: enabled. Allocations must stay ~0 (guarded by
// TestIngestSteadyAllocs).
func BenchmarkIngestBatch1024(b *testing.B) { benchIngest(b, false) }

// BenchmarkIngestBatch1024Bare is the same path with Options.NoTelemetry.
// CI compares it against BenchmarkIngestBatch1024 and fails if the
// enabled-by-default telemetry costs more than 3% of ingest throughput.
func BenchmarkIngestBatch1024Bare(b *testing.B) { benchIngest(b, true) }

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
