package serve

import (
	"math/rand"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The serving hot path must be allocation-free in steady state: once a
// cluster has seen its high-water batch size and every object has been
// touched, Ingest performs ~0 allocations per batch (partition scratch
// cycles through a pool, and all per-object tables are already
// materialized). Mirrors the solver's TestSolverSteadyAllocs; wired into
// the CI alloc-guard step.
func TestIngestSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := tree.SCICluster(4, 4, 16, 8)
	const objects = 32
	trace := workload.DriftingZipf(rng, tr, objects, 40960, 2, 1.0, 0.05)
	// Parallelism 1 keeps par.ForEach on the caller's goroutine — the
	// guard measures the serving path, not goroutine spawn plumbing.
	// EpochRequests 0 keeps the (allocating, once-per-epoch) re-solve out
	// of the steady-state measurement.
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
