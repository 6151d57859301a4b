package serve

import (
	"math/rand"
	"runtime"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The serving hot path must be allocation-free in steady state: once a
// cluster has seen its high-water batch size and every object has been
// touched, Ingest performs ~0 allocations per batch (partition scratch
// cycles through a pool, and all per-object tables are already
// materialized). Mirrors the solver's TestSolverSteadyAllocs; wired into
// the CI alloc-guard step, which runs without -race: under the race
// detector sync.Pool drops items at random, so the count is noise there.
func TestIngestSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(41))
	tr := tree.SCICluster(4, 4, 16, 8)
	const objects = 32
	trace := workload.DriftingZipf(rng, tr, objects, 40960, 2, 1.0, 0.05)
	// Parallelism 1 keeps par.ForEach on the caller's goroutine — the
	// guard measures the serving path, not goroutine spawn plumbing.
	// testing.AllocsPerRun runs at GOMAXPROCS 1 anyway, so it could not
	// see a fan-out; TestIngestSmallBatchAllocsMultiCore guards that at
	// GOMAXPROCS 2. EpochRequests 0 keeps the (allocating,
	// once-per-epoch) re-solve out of the steady-state measurement.
	c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 512
	warm := trace[:len(trace)/2]
	for lo := 0; lo+batch <= len(warm); lo += batch {
		if _, err := c.Ingest(warm[lo : lo+batch]); err != nil {
			t.Fatal(err)
		}
	}
	steady := trace[len(trace)/2:]
	// Telemetry is on by default; scraping the registry between warmup
	// and measurement must not disturb the guarantee either (reads are
	// pure atomic loads, and the write path never allocates).
	if c.Obs() == nil {
		t.Fatal("telemetry should be enabled by default")
	}
	_ = c.Obs().IngestBatch.Snapshot()
	_ = c.Obs().Shards.Total(0)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		lo := (i * batch) % (len(steady) - batch)
		i++
		if _, err := c.Ingest(steady[lo : lo+batch]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state Ingest allocates %.1f allocs/op, want ~0 (<= 2)", allocs)
	}
}

// raceEnabled is set by raceenabled_test.go in -race builds.
var raceEnabled bool

// A small batch on a multi-core host is served on the calling goroutine:
// at the default Parallelism and GOMAXPROCS 2, a warm 2-shard cluster
// serves 16-event batches with no allocation, because it starts no worker
// goroutine for them. The mallocs come from runtime.ReadMemStats, since
// testing.AllocsPerRun would pin GOMAXPROCS to 1.
func TestIngestSmallBatchAllocsMultiCore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tr := tree.SCICluster(4, 4, 16, 8)
	const objects, batch, batches = 32, 16, 2000
	trace := workload.DriftingZipf(rand.New(rand.NewSource(43)), tr, objects, 2*batch*batches, 2, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm, steady := trace[:len(trace)/2], trace[len(trace)/2:]
	for lo := 0; lo+batch <= len(warm); lo += batch {
		if _, err := c.Ingest(warm[lo : lo+batch]); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		if _, err := c.Ingest(steady[i*batch : (i+1)*batch]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / batches; per >= 1 {
		t.Errorf("16-event Ingest at GOMAXPROCS 2 allocates %.2f objects per batch, want < 1", per)
	}
}

// benchIngest measures steady-state Cluster.Ingest throughput on the
// drifting-Zipf trace (1024-request batches, threshold 8, epoch re-solve
// off), with telemetry on or off.
func benchIngest(b *testing.B, telemetry bool) {
	b.Helper()
	t := tree.SCICluster(8, 8, 32, 16)
	const objects, batch = 256, 1024
	trace := workload.DriftingZipf(rand.New(rand.NewSource(2000)), t, objects, 200000, 6, 1.0, 0.03)
	c, err := newCluster(t, objects, Options{Shards: 1, Threshold: 8}, telemetry, nil)
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
// scratch, ServeBatch, RecordBatch) with telemetry at its default:
// enabled. Allocations must stay ~0 (guarded by TestIngestSteadyAllocs).
func BenchmarkIngestBatch1024(b *testing.B) { benchIngest(b, true) }

// BenchmarkIngestBatch1024Bare is the same path on a cluster built
// without telemetry. CI compares it against BenchmarkIngestBatch1024 and
// fails if the enabled-by-default telemetry costs more than 3% of ingest
// throughput.
func BenchmarkIngestBatch1024Bare(b *testing.B) { benchIngest(b, false) }
