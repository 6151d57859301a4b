package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hbn/internal/snapshot"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The epoch pass folds drift and adopts placements shard-parallel, and the
// solver re-evaluates in parallel; none of it may change a bit of the
// result. Over a drifting trace with the drift trigger armed,
// clusters at Parallelism 1 and 4 must agree exactly — epoch log (drift
// magnitudes included), aggregate loads, every copy set and the snapshot
// image (wall-clock fields blanked) — for every shard count. Before each
// forced pass the fused fold's drift magnitude is also checked against the
// standalone measurement the drift trigger uses.
func TestEpochPassParallelBitIdentical(t *testing.T) {
	// Four real workers even on a smaller machine: par.Workers caps the
	// requested parallelism at GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 96
	trace := workload.DriftingZipf(rand.New(rand.NewSource(17)), tr, objects, 24000, 6, 1.0, 0.05)
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var clusters [2]*Cluster
			checked := 0
			for i, parallelism := range []int{1, 4} {
				c, err := NewCluster(tr, objects, Options{
					Shards: shards, EpochRequests: 2000, Threshold: 3,
					DriftThreshold: 0.1, DriftCheckRequests: 400, Parallelism: parallelism,
				})
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(trace); lo += 3000 {
					ingestAll(t, c, trace[lo:min(lo+3000, len(trace))], 250)
					c.epochMu.Lock()
					want := c.driftMagnitudeLocked()
					passes := len(c.epochLog)
					c.epochMu.Unlock()
					if err := c.ResolveNow(); err != nil {
						t.Fatal(err)
					}
					// A pass with nothing drifted is skipped and logs nothing.
					if log := c.EpochLog(); len(log) > passes {
						if got := log[len(log)-1].DriftMagnitude; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("parallelism %d: fused fold measured drift %v, standalone measurement %v", parallelism, got, want)
						}
						checked++
					}
				}
				clusters[i] = c
			}
			a, b := clusters[0], clusters[1]
			st := a.Stats()
			if st.DriftEpochs == 0 || st.Epochs <= st.DriftEpochs || checked == 0 {
				t.Fatalf("scenario lost its shape: %d epochs, %d drift-triggered, %d forced passes checked", st.Epochs, st.DriftEpochs, checked)
			}
			compareClusters(t, "parallelism 1 vs 4", a, b, objects, true)
			if ia, ib := timelessImage(a), timelessImage(b); !bytes.Equal(ia, ib) {
				t.Fatalf("snapshot images differ (%d vs %d bytes)", len(ia), len(ib))
			}
		})
	}
}

// timelessImage encodes c's snapshot state with the wall-clock fields
// zeroed.
func timelessImage(c *Cluster) []byte {
	c.epochMu.Lock()
	var st *snapshot.State
	c.quiesce(func() { st = c.captureLocked() })
	c.epochMu.Unlock()
	st.ResolveTimeNs = 0
	for i := range st.EpochLog {
		st.EpochLog[i].ResolveNs = 0
	}
	return snapshot.Encode(st)
}

// BenchmarkEpochPass times one epoch pass on the bench's ingest-drift
// shape — SCICluster(8, 8, 32, 16), 1024 objects, 2 shards, threshold 8,
// Parallelism following -cpu — with the cadence off: each iteration
// serves the next 20000 events of a drifting-Zipf trace untimed, in
// 1024-event batches, then times ResolveNow (drift fold, Resolve,
// adoption). The first pass, a full Solve, runs before the timer starts.
// The trace wraps after 20 passes.
func BenchmarkEpochPass(b *testing.B) {
	tr := tree.SCICluster(8, 8, 32, 16)
	const objects, batch, epoch = 1024, 1024, 20000
	trace := workload.DriftingZipf(rand.New(rand.NewSource(1)), tr, objects, 20*epoch, 6, 1.0, 0.03)
	c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 8})
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	servePass := func() {
		for lo := next; lo < next+epoch; lo += batch {
			if _, err := c.Ingest(trace[lo:min(lo+batch, next+epoch)]); err != nil {
				b.Fatal(err)
			}
		}
		next = (next + epoch) % len(trace)
	}
	servePass()
	if err := c.ResolveNow(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		servePass()
		b.StartTimer()
		if err := c.ResolveNow(); err != nil {
			b.Fatal(err)
		}
	}
}
