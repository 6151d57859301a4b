package serve

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"hbn/internal/dynamic"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// testTrees is the topology matrix the serving properties run on.
func testTrees(rng *rand.Rand) []struct {
	name string
	tr   *tree.Tree
} {
	type instance = struct {
		name string
		tr   *tree.Tree
	}
	out := []instance{
		{"star", tree.Star(8, 8)},
		{"kary", tree.BalancedKAry(2, 3, 0)},
		{"caterpillar", tree.Caterpillar(6, 3, 8, 8)},
		{"sci", tree.SCICluster(3, 4, 16, 8)},
	}
	for i := 0; i < 2; i++ {
		out = append(out, instance{"random", tree.Random(rng, 15+rng.Intn(40), 4, 0.4, 8)})
	}
	return out
}

// The sharding is exact: with epoch re-solve disabled, a Cluster of ANY
// shard count serves any request sequence with aggregate loads identical
// to one plain dynamic.Strategy serving it sequentially (all per-object
// state is per-object, and per-object request order is preserved). This
// subsumes the acceptance criterion's shards=1, epoch=∞ case. It runs at
// GOMAXPROCS >= 2 with batches below and at or above
// Shards × minFanOutShare, so both the inline and the fanned-out serving
// paths must match.
func TestClusterMatchesPlainStrategy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(301))
	for _, inst := range testTrees(rng) {
		const objects = 9
		reqs := dynamic.RandomSequence(rng, inst.tr, objects, 8000, 0.2)

		ref := dynamic.MustNew(inst.tr, objects, dynamic.Options{Threshold: 2})
		refCost := ref.ServeAll(reqs)

		for _, shards := range []int{1, 2, 4, 7} {
			for _, batch := range []int{97, shards * minFanOutShare, shards*minFanOutShare + 131} {
				c, err := NewCluster(inst.tr, objects, Options{Shards: shards, Threshold: 2})
				if err != nil {
					t.Fatal(err)
				}
				var cost int64
				for i := 0; i < len(reqs); i += batch { // uneven batches
					got, err := c.Ingest(reqs[i:min(i+batch, len(reqs))])
					if err != nil {
						t.Fatal(err)
					}
					cost += got
				}
				if cost != refCost {
					t.Fatalf("%s shards=%d batch=%d: service cost %d != plain strategy %d", inst.name, shards, batch, cost, refCost)
				}
				edge, service := c.EdgeLoad(), c.ServiceLoad()
				refService := ref.ServiceLoad()
				for e := range edge {
					if edge[e] != ref.EdgeLoad[e] || service[e] != refService[e] {
						t.Fatalf("%s shards=%d batch=%d edge %d: cluster (%d,%d) != plain (%d,%d)",
							inst.name, shards, batch, e, edge[e], service[e], ref.EdgeLoad[e], refService[e])
					}
				}
				st := c.Stats()
				if st.Requests != int64(len(reqs)) || st.ServiceCost != refCost || st.Epochs != 0 {
					t.Fatalf("%s shards=%d batch=%d: stats %+v", inst.name, shards, batch, st)
				}
			}
		}
	}
}

// Synchronous epoch re-solve is deterministic: two clusters with the same
// configuration fed the same trace in the same batches agree exactly on
// loads, epochs and adoption movement.
func TestClusterDeterministic(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 12
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 4000, 4, 1.0, 0.05)

	run := func() ([]int64, []EpochStat, Stats) {
		c, err := NewCluster(tr, objects, Options{Shards: 3, EpochRequests: 500, Threshold: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(trace); i += 250 {
			if _, err := c.Ingest(trace[i : i+250]); err != nil {
				t.Fatal(err)
			}
		}
		return c.EdgeLoad(), c.EpochLog(), c.Stats()
	}
	e1, log1, st1 := run()
	e2, log2, st2 := run()
	st1.ResolveTime, st2.ResolveTime = 0, 0 // wall time is not deterministic
	if st1 != st2 {
		t.Fatalf("stats differ: %+v vs %+v", st1, st2)
	}
	if len(log1) != len(log2) {
		t.Fatalf("epoch logs differ in length: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		log1[i].ResolveNs, log2[i].ResolveNs = 0, 0
		if log1[i] != log2[i] {
			t.Fatalf("epoch %d differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
	for e := range e1 {
		if e1[e] != e2[e] {
			t.Fatalf("edge %d load differs: %d vs %d", e, e1[e], e2[e])
		}
	}
	if st1.Epochs != 8 {
		t.Fatalf("expected 8 epoch passes for 4000 requests at epoch 500, got %d", st1.Epochs)
	}
}

// The acceptance criterion's core claim: on a drifting-Zipf trace, epoch
// re-solving beats the no-re-solve baseline on max edge load (the
// congestion numerator). Both clusters are identical apart from
// EpochRequests; loads compared exclude adoption transfers by
// construction (booked separately) and include all threshold-driven
// movement.
func TestClusterEpochResolveBeatsNoResolve(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rand.New(rand.NewSource(9)), tr, objects, 30000, 6, 1.0, 0.02)

	serveAll := func(epoch int64) *Cluster {
		c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: epoch, Threshold: 6})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(trace); i += 500 {
			if _, err := c.Ingest(trace[i : i+500]); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	resolving := serveAll(1000)
	baseline := serveAll(0)
	rm, bm := resolving.MaxEdgeLoad(), baseline.MaxEdgeLoad()
	t.Logf("max edge load: re-solve %d vs baseline %d (total %d vs %d; %d epochs, %d moved)",
		rm, bm, resolving.TotalLoad(), baseline.TotalLoad(),
		resolving.Stats().Epochs, resolving.Stats().AdoptMoved)
	if rm >= bm {
		t.Fatalf("epoch re-solve should beat the no-re-solve baseline on max edge load: %d >= %d", rm, bm)
	}
	if resolving.Stats().Epochs == 0 {
		t.Fatal("no epoch passes ran")
	}
}

// Adoption pushes the solved static placement into the shards: after a
// read-heavy history and a forced re-solve, the hot readers hold local
// copies and their next reads are free.
func TestClusterAdoptionWarmsState(t *testing.T) {
	tr := tree.BalancedKAry(2, 3, 0)
	leaves := tr.Leaves()
	c, err := NewCluster(tr, 1, Options{Shards: 1, Threshold: 100}) // threshold too high to ever replicate dynamically
	if err != nil {
		t.Fatal(err)
	}
	readers := []tree.NodeID{leaves[0], leaves[1], leaves[len(leaves)-1]}
	var batch []Request
	for i := 0; i < 200; i++ {
		batch = append(batch, Request{Object: 0, Node: readers[i%len(readers)]})
	}
	if _, err := c.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Epochs != 1 || st.Drifted != 1 {
		t.Fatalf("stats after forced resolve: %+v", st)
	}
	// A pure-read workload replicates to every reader: the next read from
	// each reader must be free.
	for _, v := range readers {
		cost, err := c.Ingest([]Request{{Object: 0, Node: v}})
		if err != nil {
			t.Fatal(err)
		}
		if cost != 0 {
			t.Fatalf("read from %d after adoption cost %d, want 0 (copies %v)", v, cost, c.Copies(0))
		}
	}
	log := c.EpochLog()
	if len(log) != 1 || log[0].Drifted != 1 || log[0].Epoch != 1 {
		t.Fatalf("epoch log %+v", log)
	}
}

// A second ResolveNow with no traffic in between is a no-op (no drift, no
// epoch), and an unchanged placement does not move copies.
func TestClusterResolveNoDriftIsNoop(t *testing.T) {
	tr := tree.Star(6, 8)
	c, err := NewCluster(tr, 3, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest([]Request{{Object: 0, Node: 1}, {Object: 1, Node: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Epochs != 1 {
		t.Fatalf("no-drift resolve should not count an epoch: %+v", st)
	}
	// Re-serving the same leaves and re-solving keeps copies in place.
	if _, err := c.Ingest([]Request{{Object: 0, Node: 1}}); err != nil {
		t.Fatal(err)
	}
	before := c.Copies(0)
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Epochs != 2 || st.AdoptMoved != 0 {
		t.Fatalf("unchanged placement should not move copies: %+v (copies %v -> %v)", st, before, c.Copies(0))
	}
}

// Ingest validates its batch up front and rejects bad requests without
// serving anything; a closed cluster rejects everything.
func TestClusterValidationAndClose(t *testing.T) {
	tr := tree.Star(4, 8)
	c, err := NewCluster(tr, 2, Options{Shards: 2, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest([]Request{{Object: 5, Node: 1}}); err == nil {
		t.Fatal("out-of-range object should fail")
	}
	if _, err := c.Ingest([]Request{{Object: 0, Node: 0}}); err == nil {
		t.Fatal("bus-node request should fail")
	}
	// Out-of-range nodes must error, not panic (regression: IsLeaf indexed
	// the node table unchecked).
	if _, err := c.Ingest([]Request{{Object: 0, Node: 99}}); err == nil {
		t.Fatal("out-of-range node should fail")
	}
	if _, err := c.Ingest([]Request{{Object: 0, Node: -1}}); err == nil {
		t.Fatal("negative node should fail")
	}
	if got := c.Stats().Requests; got != 0 {
		t.Fatalf("rejected batches must not serve: %d requests recorded", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := c.Ingest([]Request{{Object: 0, Node: 1}}); err == nil {
		t.Fatal("ingest after Close should fail")
	}
	if err := c.ResolveNow(); err == nil {
		t.Fatal("resolve after Close should fail")
	}
}

// A cluster keeps one observed-frequency table whatever its shard count:
// on the bench shape, a fresh cluster at 8 shards holds less than two
// |X|×|V| tables more live heap than one at 1 shard. The per-shard
// strategies and drift queues are all that may grow with the shards; a
// table per shard would add seven.
func TestClusterStateIndependentOfShards(t *testing.T) {
	tr := tree.SCICluster(8, 8, 32, 16)
	const objects = 1024
	heap := func(shards int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := NewCluster(tr, objects, Options{Shards: shards, Threshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	table := int64(objects * tr.Len() * int(unsafe.Sizeof(workload.Access{})))
	one, eight := heap(1), heap(8)
	t.Logf("fresh cluster: %.2f MiB at 1 shard, %.2f MiB at 8; one table is %.2f MiB",
		float64(one)/(1<<20), float64(eight)/(1<<20), float64(table)/(1<<20))
	if eight-one >= 2*table {
		t.Fatalf("8 shards hold %d B more than 1 shard; want less than two frequency tables (%d B)", eight-one, 2*table)
	}
}
