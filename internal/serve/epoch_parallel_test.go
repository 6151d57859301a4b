package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

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

// BenchmarkEpochPass times one epoch pass with the cadence off: each
// iteration serves the next epoch's events of a trace untimed, in
// 1024-event batches, then times ResolveNow (drift fold, Resolve,
// adoption). The first pass, a full Solve, runs before the timer starts,
// and the trace wraps after 20 passes (2 for the uniform traffic, which
// has no phases). Every case runs 1024 objects on 2 shards at threshold
// 8, Parallelism following -cpu:
//
//   - ingest-drift: the bench's ingest-drift shape, SCICluster(8, 8, 32,
//     16) under drifting-Zipf traffic, 20000 events per pass. A solver row
//     holds about 4 of the 64 processors.
//   - dense-rows: the same network under the net-small-batch traffic
//     (objects and processors uniform, 10% writes), 2^18 events per pass,
//     so every solver row holds all 64 processors.
//   - ingest-drift-273: the ingest-drift traffic on SCICluster(16, 16, 32,
//     16), 273 nodes, where a pass that sweeps |V| per object pays most.
//   - ingest-drift-sliced: the ingest-drift case served as the bench
//     serves it, with the cadence on: each iteration times the Ingest
//     calls of one epoch, among them the passCalls calls its pass is
//     spread over, and max-slice-ms/op reports the largest of those
//     calls, serving included.
func BenchmarkEpochPass(b *testing.B) {
	const objects = 1024
	drift := func(tr *tree.Tree, n int) []workload.TraceEvent {
		return workload.DriftingZipf(rand.New(rand.NewSource(1)), tr, objects, n, 6, 1.0, 0.03)
	}
	uniform := func(tr *tree.Tree, n int) []workload.TraceEvent {
		rng := rand.New(rand.NewSource(1))
		leaves := tr.Leaves()
		out := make([]workload.TraceEvent, n)
		for i := range out {
			out[i] = workload.TraceEvent{Object: rng.Intn(objects), Node: leaves[rng.Intn(len(leaves))], Write: rng.Intn(10) == 0}
		}
		return out
	}
	for _, bc := range []struct {
		name          string
		tr            *tree.Tree
		epoch, passes int
		gen           func(*tree.Tree, int) []workload.TraceEvent
	}{
		{"ingest-drift", tree.SCICluster(8, 8, 32, 16), 20000, 20, drift},
		{"dense-rows", tree.SCICluster(8, 8, 32, 16), 1 << 18, 2, uniform},
		{"ingest-drift-273", tree.SCICluster(16, 16, 32, 16), 20000, 20, drift},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchEpochPass(b, bc.tr, objects, bc.epoch, bc.gen(bc.tr, bc.passes*bc.epoch))
		})
	}
	b.Run("ingest-drift-sliced", func(b *testing.B) {
		tr := tree.SCICluster(8, 8, 32, 16)
		benchSlicedPass(b, tr, objects, 20000, drift(tr, 20*20000+3*20000/4))
	})
}

// benchSlicedPass serves trace in 1024-event batches with a pass every
// epoch requests, starting a quarter epoch before a boundary so that
// each iteration's epoch of calls holds one whole pass, and reports the
// largest call that ran pass work. The trace is 3/4 of an epoch longer
// than a whole number of epochs, so each iteration's events lie within
// it.
func benchSlicedPass(b *testing.B, tr *tree.Tree, objects, epoch int, trace []workload.TraceEvent) {
	const batch = 1024
	c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 8, EpochRequests: int64(epoch)})
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	var worst, slowest time.Duration
	serve := func(n int) {
		for lo := next; lo < next+n; lo += batch {
			t0 := time.Now()
			busy := c.inFlight.Load()
			if _, err := c.Ingest(trace[lo:min(lo+batch, next+n)]); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(t0); (busy || c.inFlight.Load()) && d > slowest {
				slowest = d
			}
		}
		next = (next + n) % len(trace)
	}
	serve(epoch + 3*epoch/4) // the first pass, a full Solve, and 3/4 of an epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slowest = 0
		serve(epoch)
		worst += slowest
	}
	b.ReportMetric(float64(worst)/1e6/float64(b.N), "max-slice-ms/op")
}

func benchEpochPass(b *testing.B, tr *tree.Tree, objects, epoch int, trace []workload.TraceEvent) {
	const batch = 1024
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
