package serve

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"hbn/internal/dynamic"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// denseFold is the epoch fold as it ran over a dense copy of freq's rows
// as of each object's last fold, prev: the oracle the sparse since-fold
// state must reproduce. It folds the queued objects xs (in shard order,
// then queue order) into w and prev, and returns the drift magnitude.
func denseFold(c *Cluster, xs []int, w, prev *workload.W) float64 {
	leaves := c.t.Leaves()
	var num, den float64
	for _, x := range xs {
		row, old, solved := c.freq.Row(x), prev.Row(x), w.Row(x)
		var dTot, pTot int64
		for _, v := range leaves {
			dTot += (row[v].Reads - old[v].Reads) + (row[v].Writes - old[v].Writes)
			pTot += old[v].Reads + old[v].Writes
		}
		d := 0.0
		if dTot > 0 {
			d = 2.0
			if pTot > 0 {
				d = 0
				var support int
				for _, v := range leaves {
					dl := (row[v].Reads - old[v].Reads) + (row[v].Writes - old[v].Writes)
					pl := old[v].Reads + old[v].Writes
					if dl > 0 || pl > 0 {
						support++
					}
					d += math.Abs(float64(dl)/float64(dTot) - float64(pl)/float64(pTot))
				}
				d -= math.Sqrt(float64(support)/float64(dTot)) + math.Sqrt(float64(support)/float64(pTot))
				d = max(d, 0)
			}
		}
		num, den = addDrift(num, den, dTot, d)
		for _, v := range leaves {
			solved[v] = workload.Access{
				Reads:  solved[v].Reads>>1 + row[v].Reads - old[v].Reads,
				Writes: solved[v].Writes>>1 + row[v].Writes - old[v].Writes,
			}
			old[v] = row[v]
		}
	}
	return driftMean(num, den)
}

// queued is every shard's drift queue, in shard order.
func queued(c *Cluster) []int {
	var xs []int
	for _, sh := range c.shards {
		xs = append(xs, sh.tracker.Drifted()...)
	}
	return xs
}

// lastOrZero is s.LastFold with a fresh zero row for the nil it returns
// for an object never folded with a count.
func lastOrZero(s *dynamic.SinceFold, x int, row, buf []workload.Access) []workload.Access {
	if last := s.LastFold(x, row, buf); last != nil {
		return last
	}
	return make([]workload.Access, len(row))
}

// checkSince requires every object's row as of its last fold, as its
// shard's tracker keeps it, to equal prev's, and the measured drift
// magnitude to equal the dense oracle's bit for bit.
func checkSince(t *testing.T, ctx string, c *Cluster, prev *workload.W) {
	t.Helper()
	buf := make([]workload.Access, c.t.Len())
	for x := 0; x < c.numObjects; x++ {
		last := lastOrZero(c.shards[x%len(c.shards)].tracker.Since(), x, c.freq.Row(x), buf)
		for v, a := range last {
			if want := prev.Row(x)[v]; a != want {
				t.Fatalf("%s: object %d node %d: count as of the last fold %+v, want %+v", ctx, x, v, a, want)
			}
		}
	}
	c.epochMu.Lock()
	got := c.driftMagnitudeLocked()
	c.epochMu.Unlock()
	if want := denseFold(c, queued(c), c.w.Clone(), prev.Clone()); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: drift magnitude %v, dense oracle %v", ctx, got, want)
	}
}

// The sparse fold equals the dense-c.prev oracle after every pass: the
// counts since each object's last fold, the drift magnitude (as the
// trigger measures it and as the pass records it, bit for bit) and the
// folded solver rows, at 1–3 shards and 1–2 workers, across a snapshot
// restore and a reconfiguration that removes two leaves; and every folded
// object's state is forgotten by its pass.
func TestSinceFoldMatchesDenseOracle(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 40
	trace := workload.DriftingZipf(rand.New(rand.NewSource(27)), tr, objects, 24000, 4, 1.0, 0.1)
	for _, cfg := range []Options{
		{Shards: 1, Threshold: 4, Parallelism: 1},
		{Shards: 2, Threshold: 4, Parallelism: 2},
		{Shards: 3, Threshold: 4, Parallelism: 2},
	} {
		c, err := NewCluster(tr, objects, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := workload.New(objects, tr.Len())
		pass := func(ctx string) {
			t.Helper()
			checkSince(t, ctx, c, prev)
			w := c.w.Clone()
			want := denseFold(c, queued(c), w, prev)
			if err := c.ResolveNow(); err != nil {
				t.Fatal(err)
			}
			log := c.EpochLog()
			if got := log[len(log)-1].DriftMagnitude; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: the pass recorded drift %v, dense oracle %v", ctx, got, want)
			}
			for x := 0; x < objects; x++ {
				if !slices.Equal(c.w.Row(x), w.Row(x)) {
					t.Fatalf("%s: object %d: folded solver row differs from the dense oracle's", ctx, x)
				}
			}
			for si, sh := range c.shards {
				if touched, saved := sh.tracker.Since().Cells(); touched != 0 || saved != 0 {
					t.Fatalf("%s: shard %d keeps %d touched cells and %d saved counts after the pass", ctx, si, touched, saved)
				}
			}
		}
		serveRange := func(ctx string, lo, hi int, node []tree.NodeID) {
			t.Helper()
			for ; lo < hi; lo += 500 {
				batch := slices.Clone(trace[lo:min(lo+500, hi)])
				if node != nil {
					batch = slices.DeleteFunc(batch, func(r Request) bool { return node[r.Node] == tree.None })
					for i := range batch {
						batch[i].Node = node[batch[i].Node]
					}
				}
				if _, err := c.Ingest(batch); err != nil {
					t.Fatal(err)
				}
				// A pass every fourth batch, the last two of each range
				// left unfolded for the cut and the reconfiguration.
				if lo/500%4 == 1 {
					pass(ctx)
				}
			}
		}
		serveRange("before restore", 0, 8000, nil)
		checkSince(t, "at the cut", c, prev)

		path := filepath.Join(t.TempDir(), "snap.hbn")
		if _, err := c.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		if c, _, err = Restore(path, RestoreOptions{Parallelism: cfg.Parallelism}); err != nil {
			t.Fatal(err)
		}
		checkSince(t, "after restore", c, prev)
		serveRange("after restore", 8000, 16000, nil)

		// The reconfiguration's plan folds every queued object first.
		denseFold(c, queued(c), c.w.Clone(), prev)
		leaves := tr.Leaves()
		rs, err := c.Reconfigure(topo.Diff{Remove: []tree.NodeID{leaves[1], leaves[len(leaves)-2]}})
		if err != nil {
			t.Fatal(err)
		}
		prev = rs.Remap.Workload(prev)
		serveRange("after reconfigure", 16000, 24000, rs.Remap.Node)
		checkSince(t, "after reconfigure", c, prev)
	}
}

// The since-fold state stays within three bounds on the bench shape (two
// shards, threshold 8), checked after every 1,024-event batch: the saved
// counts never exceed the distinct touched cells whose last-fold count is
// nonzero; a cluster that never folds (write storm, no passes) saves none;
// and a batch whose call folded every queued object (the call that starts
// a pass, seen through the pass hook) leaves no state.
func TestSinceFoldStateBounds(t *testing.T) {
	tr := tree.SCICluster(8, 8, 32, 16)
	const objects = 1024
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		trace []Request
		epoch int64
	}{
		{"drifting zipf, a pass every 20000", workload.DriftingZipf(rng, tr, objects, 200_000, 6, 1.0, 0.03), 20000},
		{"write storm, no pass", workload.WriteStorm(rng, tr, objects, 200_000, 4, 0.05), 0},
	} {
		c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 8, EpochRequests: tc.epoch})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]workload.Access, tr.Len())
		var passes, peak, touchedPeak int
		var passed bool
		c.passHook = func(_ int, stage string, _ int) { passed = passed || stage == "fold" }
		for lo := 0; lo < len(tc.trace); lo += 1024 {
			passed = false
			if _, err := c.Ingest(tc.trace[lo:min(lo+1024, len(tc.trace))]); err != nil {
				t.Fatal(err)
			}
			if passed {
				passes++
			}
			for si, sh := range c.shards {
				s := sh.tracker.Since()
				touched, saved := s.Cells()
				nonzero := 0
				for x := si; x < objects; x += len(c.shards) {
					row := c.freq.Row(x)
					for v, l := range lastOrZero(s, x, row, buf) {
						// A touched cell's count moved since the fold.
						if l != row[v] && l != (workload.Access{}) {
							nonzero++
						}
					}
				}
				switch {
				case saved > nonzero:
					t.Fatalf("%s, batch at %d, shard %d: %d saved counts for %d touched cells with a nonzero last-fold count", tc.name, lo, si, saved, nonzero)
				case tc.epoch == 0 && saved != 0:
					t.Fatalf("%s, batch at %d, shard %d: %d saved counts in a cluster that never folds", tc.name, lo, si, saved)
				case passed && touched+saved != 0:
					t.Fatalf("%s, batch at %d, shard %d: %d touched cells and %d saved counts after the pass", tc.name, lo, si, touched, saved)
				}
				peak, touchedPeak = max(peak, saved), max(touchedPeak, touched)
			}
		}
		t.Logf("%s: %d passes; at most %d saved counts and %d touched cells in a shard", tc.name, passes, peak, touchedPeak)
		if touchedPeak == 0 || (tc.epoch > 0) != (passes > 0 && peak > 0) {
			t.Fatalf("%s: %d passes, peak %d saved and %d touched: the trace no longer exercises the state", tc.name, passes, peak, touchedPeak)
		}
	}
}
