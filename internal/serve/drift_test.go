package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// driftServeAll ingests the trace in 500-request batches and returns the
// cluster; everything here is deterministic in (trace, opts).
func driftServeAll(t *testing.T, tr *tree.Tree, objects int, trace []workload.TraceEvent, opts Options) *Cluster {
	t.Helper()
	c, err := NewCluster(tr, objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(trace); i += 500 {
		if _, err := c.Ingest(trace[i:min(i+500, len(trace))]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// driftFixOptions is the PR 8 fix over a cadence-only configuration: the
// drift trigger armed at a few checks per old epoch, the fallback cadence
// stretched 5x (the trigger catches real shifts; every cadence adoption
// churns copy sets whether or not traffic moved), bandwidth-scaled
// replication budgets and a lazy write-contraction budget.
func driftFixOptions(cadenceOnly Options) Options {
	o := cadenceOnly
	o.EpochRequests = 5 * cadenceOnly.EpochRequests
	o.DriftThreshold = 0.15
	o.DriftCheckRequests = cadenceOnly.EpochRequests / 16
	o.BandwidthAware = true
	o.WriteBudget = o.Threshold
	return o
}

// Diurnal traffic drifts continuously: the activity window sweeps the
// leaves, so every periodic re-solve lags it. With aged history the
// cadence-only run edges out no re-solve, and driftFixOptions (the drift
// trigger plus the replication and contraction budgets) must beat both
// clearly. All three runs are pinned (fixed seed, deterministic ingest),
// so the comparisons are exact, not statistical.
func TestDriftTriggerBeatsDiurnalAgedResolve(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 24
	trace := workload.Diurnal(rand.New(rand.NewSource(1)), tr, objects, 30000, 10000, 0.08)

	cadenceOnly := Options{Shards: 4, EpochRequests: 1000, Threshold: 6}
	noResolve := Options{Shards: 4, Threshold: 6}

	cad := driftServeAll(t, tr, objects, trace, cadenceOnly)
	base := driftServeAll(t, tr, objects, trace, noResolve)
	fixed := driftServeAll(t, tr, objects, trace, driftFixOptions(cadenceOnly))

	cm, bm, fm := cad.MaxEdgeLoad(), base.MaxEdgeLoad(), fixed.MaxEdgeLoad()
	t.Logf("diurnal max edge load: cadence-only %d, no-re-solve %d, drift fix %d (%d drift epochs)",
		cm, bm, fm, fixed.Stats().DriftEpochs)
	if cm >= bm {
		t.Fatalf("aged cadence-only re-solve (%d) should beat no-re-solve (%d)", cm, bm)
	}
	if fm >= bm {
		t.Fatalf("drift fix should beat no-re-solve: %d >= %d", fm, bm)
	}
	if fm >= cm {
		t.Fatalf("drift fix should beat cadence-only re-solve: %d >= %d", fm, cm)
	}
	if fixed.Stats().DriftEpochs == 0 {
		t.Fatal("the drift trigger never fired")
	}
}

// Hotspot-migration is the other documented loss: at scale, per-object
// re-solves on near-identical frequency rows stack every object's copies
// onto the hot region, while the baseline's stale replicas act as
// incidental load spreading. At this pinned seed the cadence-only run
// still loses to no-re-solve; the fix must win against both.
func TestDriftTriggerFlipsHotspotResolveLoss(t *testing.T) {
	tr := tree.SCICluster(8, 8, 32, 16)
	const objects = 128
	trace := workload.HotspotMigration(rand.New(rand.NewSource(4)), tr, objects, 60000, 3, 0.7, 0.05)

	cadenceOnly := Options{Shards: 4, EpochRequests: 1200, Threshold: 8}
	noResolve := Options{Shards: 4, Threshold: 8}

	cad := driftServeAll(t, tr, objects, trace, cadenceOnly)
	base := driftServeAll(t, tr, objects, trace, noResolve)
	fixed := driftServeAll(t, tr, objects, trace, driftFixOptions(cadenceOnly))

	cm, bm, fm := cad.MaxEdgeLoad(), base.MaxEdgeLoad(), fixed.MaxEdgeLoad()
	t.Logf("hotspot max edge load: cadence-only %d, no-re-solve %d, drift fix %d (%d drift epochs)",
		cm, bm, fm, fixed.Stats().DriftEpochs)
	if cm < bm {
		t.Fatalf("precondition lost: cadence-only re-solve (%d) no longer loses to no-re-solve (%d); update the pinned scenario", cm, bm)
	}
	if fm >= bm {
		t.Fatalf("drift fix should flip the hotspot re-solve loss to a win: %d >= no-re-solve %d", fm, bm)
	}
	if fm >= cm {
		t.Fatalf("drift fix should beat cadence-only re-solve: %d >= %d", fm, cm)
	}
	if fixed.Stats().DriftEpochs == 0 {
		t.Fatal("the drift trigger never fired")
	}
}

// History is forgotten by one rule only: one halving per pass. Arming the
// drift trigger must not change what the epoch fold keeps, so a trigger
// that is armed but can never fire (DriftThreshold 3 lies above the
// magnitude's [0,2] range) serves exactly like no trigger at all: the
// same epoch log (wall times aside) and the same edge loads.
func TestOneForgettingRule(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rand.New(rand.NewSource(9)), tr, objects, 30000, 6, 1.0, 0.05)

	plain := Options{Shards: 4, EpochRequests: 1000, Threshold: 6}
	armed := plain
	armed.DriftThreshold = 3

	a := driftServeAll(t, tr, objects, trace, plain)
	b := driftServeAll(t, tr, objects, trace, armed)
	la, lb := a.EpochLog(), b.EpochLog()
	if len(la) != len(lb) || len(la) == 0 {
		t.Fatalf("epoch passes: %d unarmed, %d armed", len(la), len(lb))
	}
	for i := range la {
		la[i].ResolveNs, lb[i].ResolveNs = 0, 0
		if la[i] != lb[i] {
			t.Fatalf("epoch %d differs once the trigger is armed:\n unarmed %+v\n armed   %+v", i+1, la[i], lb[i])
		}
	}
	if !slices.Equal(a.EdgeLoad(), b.EdgeLoad()) {
		t.Fatal("edge loads differ once the trigger is armed")
	}
}

// Every epoch pass halves each drifted object's solver row once and adds
// the traffic observed since the previous pass; an object with no new
// traffic keeps its row untouched. The oracle rebuilds c.w from per-pass
// deltas of the cluster's cumulative counts. Objects x%4 == 0 stop
// receiving traffic halfway through, so later passes exercise both sides.
func TestFoldAgesDriftedRows(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 24
	var trace []workload.TraceEvent
	for i, ev := range workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 12000, 4, 1.0, 0.05) {
		if i < 6000 || ev.Object%4 != 0 {
			trace = append(trace, ev)
		}
	}
	c, err := NewCluster(tr, objects, Options{Shards: 3, EpochRequests: 1500, Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	nodes := tr.Len()
	want, seen := workload.New(objects, nodes), workload.New(objects, nodes)
	var passes int64
	aged, kept := 0, 0
	for lo := 0; lo < len(trace); lo += 500 {
		if _, err := c.Ingest(trace[lo:min(lo+500, len(trace))]); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Epochs == passes {
			continue
		}
		passes = c.Stats().Epochs
		for x := 0; x < objects; x++ {
			cur := c.freq.Row(x)
			if slices.Equal(cur, seen.Row(x)) {
				kept++
			} else {
				for v := range cur {
					w, old, now := want.Row(x)[v], seen.Row(x)[v], cur[v]
					if w.Total() > 1 {
						aged++
					}
					want.Set(x, tree.NodeID(v), workload.Access{
						Reads:  w.Reads>>1 + now.Reads - old.Reads,
						Writes: w.Writes>>1 + now.Writes - old.Writes,
					})
					seen.Set(x, tree.NodeID(v), now)
				}
			}
			if got := c.w.Row(x); !slices.Equal(got, want.Row(x)) {
				t.Fatalf("pass %d, object %d: solver row %v, want %v", passes, x, got, want.Row(x))
			}
		}
	}
	if passes < 4 || aged == 0 || kept == 0 {
		t.Fatalf("%d passes, %d aged cells, %d kept rows: the trace no longer exercises the fold", passes, aged, kept)
	}
}

// A fold that would give the solver a negative frequency panics, and the
// panic leaves no lock held: the cluster serves and folds afterwards. A
// saved first-touch count above the recorded count stands in for a bug
// in the since-fold bookkeeping.
func TestFoldNegativeFrequencyPanics(t *testing.T) {
	tr := tree.SCICluster(4, 6, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 3000, 2, 1.0, 0.05)
	c := driftServeAll(t, tr, objects, trace[:2000], Options{Shards: 3, Threshold: 6, Parallelism: 2})
	x, v := trace[0].Object, trace[0].Node
	since := c.shards[x%len(c.shards)].tracker.Since()
	since.Forget([]int{x}, c.freq)
	since.Touch(x, v, workload.Access{Reads: 1 << 40})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "negative") {
				t.Fatalf("fold with a negative delta recovered %v, want a negative-frequency panic", r)
			}
		}()
		_ = c.ResolveNow()
	}()
	for si, sh := range c.shards {
		if !sh.mu.TryLock() {
			t.Fatalf("shard %d still locked after the panic", si)
		}
		sh.mu.Unlock()
	}
	since.Forget([]int{x}, c.freq)
	if _, err := c.Ingest(trace[2000:]); err != nil {
		t.Fatal(err)
	}
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
}
