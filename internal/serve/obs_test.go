package serve

import (
	"math/rand"
	"path/filepath"
	"testing"

	"hbn/internal/obs"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// obsTotals reads the obs-side ledger of a cluster.
func obsTotals(c *Cluster) (events, cost, droppedLoad, droppedCost int64) {
	o := c.Obs()
	return o.Shards.Total(obs.SlotEvents), o.Shards.Total(obs.SlotCost),
		o.Shards.Total(obs.SlotDroppedLoad), o.Shards.Total(obs.SlotDroppedCost)
}

// checkReconciled asserts the obs counters equal the conservation
// ledger exactly — the invariant the chaos harness re-checks after
// every scenario.
func checkReconciled(t *testing.T, c *Cluster) {
	t.Helper()
	st := c.Stats()
	ev, cost, dl, dc := obsTotals(c)
	if ev != st.Requests {
		t.Fatalf("obs events %d != Stats.Requests %d", ev, st.Requests)
	}
	if cost != st.ServiceCost {
		t.Fatalf("obs cost %d != Stats.ServiceCost %d", cost, st.ServiceCost)
	}
	if dl != st.DroppedLoad {
		t.Fatalf("obs dropped load %d != Stats.DroppedLoad %d", dl, st.DroppedLoad)
	}
	if dc != st.DroppedServiceLoad {
		t.Fatalf("obs dropped cost %d != Stats.DroppedServiceLoad %d", dc, st.DroppedServiceLoad)
	}
	if fires := c.Obs().Global.Load(obs.SlotDriftFires); fires != st.DriftEpochs {
		t.Fatalf("obs drift fires %d != Stats.DriftEpochs %d", fires, st.DriftEpochs)
	}
	if n := c.Obs().EpochPass.Count(); n != st.Epochs {
		t.Fatalf("epoch histogram count %d != Stats.Epochs %d", n, st.Epochs)
	}
}

// TestObsLedgerReconciliation drives a cluster through epochs, a drift
// trigger, a reconfiguration that drops hardware (and load with it), and
// a rolling swap, checking after each stage that the obs counters and
// the conservation ledger agree exactly.
func TestObsLedgerReconciliation(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 48
	trace := workload.DriftingZipf(rng, tr, objects, 24000, 4, 1.0, 0.25)
	c, err := NewCluster(tr, objects, Options{
		Shards: 3, EpochRequests: 4000, Threshold: 3,
		DriftThreshold: 0.05, DriftCheckRequests: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	half := len(trace) / 2
	for lo := 0; lo < half; lo += 512 {
		hi := min(lo+512, half)
		if _, err := c.Ingest(trace[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	checkReconciled(t, c)

	// A reconfigure removing one ring switch: loads on its edges are
	// dropped; the obs drop counters must move in lockstep.
	doomed := tree.NodeID(1 + 2*(4+1))
	if _, err := c.Reconfigure(topo.Diff{Remove: []tree.NodeID{doomed}}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DroppedLoad == 0 {
		t.Fatal("expected the reconfigure to drop load (test premise)")
	}
	checkReconciled(t, c)

	// Keep serving on the new tree (remap the trace), then roll back in a
	// grafted replacement and check again.
	for lo := half; lo < len(trace); lo += 512 {
		hi := min(lo+512, len(trace))
		batch := append([]Request(nil), trace[lo:hi]...)
		ok := batch[:0]
		for _, r := range batch {
			if int(r.Node) < len(c.isLeaf) && c.isLeaf[r.Node] {
				ok = append(ok, r)
			}
		}
		if len(ok) == 0 {
			continue
		}
		if _, err := c.Ingest(ok); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Reconfigure(topo.Diff{}); err != nil {
		t.Fatal(err)
	}
	checkReconciled(t, c)

	// Flight recorder saw the structural story: at least one epoch event
	// and both reconfigurations' phases.
	var epochs, reconfigs int
	for _, ev := range c.Obs().Flight.Events(nil) {
		switch ev.Kind {
		case obs.EvEpoch:
			epochs++
		case obs.EvReconfig:
			reconfigs++
		}
	}
	if epochs == 0 || reconfigs == 0 {
		t.Fatalf("flight recorder missing events: %d epoch, %d reconfig", epochs, reconfigs)
	}
	// And the strategies reported structural decisions.
	ops := c.OpCounts()
	if ops.Materializations == 0 || ops.Adoptions == 0 {
		t.Fatalf("op counts empty: %+v", ops)
	}
}

// TestObsIngestHistogram checks the batch-apply histogram advances with
// each Ingest and its count matches the number of batches booked.
func TestObsIngestHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := tree.SCICluster(3, 3, 8, 4)
	trace := workload.DriftingZipf(rng, tr, 16, 4096, 2, 1.0, 0.05)
	c, err := NewCluster(tr, 16, Options{Shards: 2, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batches := int64(0)
	for lo := 0; lo+256 <= len(trace); lo += 256 {
		if _, err := c.Ingest(trace[lo : lo+256]); err != nil {
			t.Fatal(err)
		}
		batches++
	}
	s := c.Obs().IngestBatch.Snapshot()
	if s.Count != batches {
		t.Fatalf("ingest histogram count %d, want %d", s.Count, batches)
	}
	if s.Max <= 0 || s.Min < 0 || s.Quantile(0.99) < s.Quantile(0.5) {
		t.Fatalf("degenerate latency snapshot: %+v", s)
	}
	// Per-shard batch counters: each Ingest touches at most Shards
	// shards, and every batch books exactly once per non-empty partition.
	if got := c.Obs().Shards.Total(obs.SlotBatches); got < batches || got > 2*batches {
		t.Fatalf("shard batch bookings %d outside [%d,%d]", got, batches, 2*batches)
	}
}

// TestNoTelemetry pins the bare cluster the overhead-guard baseline
// builds: no registry, and serving still works.
func TestNoTelemetry(t *testing.T) {
	tr := tree.SCICluster(3, 3, 8, 4)
	c, err := newCluster(tr, 8, Options{Threshold: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Obs() != nil {
		t.Fatal("Obs() should be nil without telemetry")
	}
	leaf := tr.Leaves()[0]
	if _, err := c.Ingest([]Request{{Object: 1, Node: leaf, Write: false}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reconfigure(topo.Diff{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(filepath.Join(t.TempDir(), "s.hbn")); err != nil {
		t.Fatal(err)
	}
}

// TestObsRestoreSeeding: a restored cluster's obs ledger must reconcile
// with the restored conservation ledger immediately, and keep
// reconciling as serving continues.
func TestObsRestoreSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 32
	trace := workload.DriftingZipf(rng, tr, objects, 16000, 3, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 2, EpochRequests: 3000, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	half := len(trace) / 2
	for lo := 0; lo < half; lo += 512 {
		if _, err := c.Ingest(trace[lo:min(lo+512, half)]); err != nil {
			t.Fatal(err)
		}
	}
	// Drop some hardware so the restored image carries dropped-load state.
	doomed := tree.NodeID(1 + 2*(4+1))
	if _, err := c.Reconfigure(topo.Diff{Remove: []tree.NodeID{doomed}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.hbn")
	if _, err := c.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	c.Close()

	r, info, err := Restore(path, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.Fallback {
		t.Fatal("unexpected fallback restore")
	}
	checkReconciled(t, r)
	// The restore itself is on the flight record.
	found := false
	for _, ev := range r.Obs().Flight.Events(nil) {
		if ev.Kind == obs.EvRecovery && ev.B == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvRecovery flight event after Restore")
	}
	// Serving continues on the restored cluster; the ledgers keep moving
	// together. (Restored tree lost nodes; filter the trace.)
	for lo := half; lo < len(trace); lo += 512 {
		batch := append([]Request(nil), trace[lo:min(lo+512, len(trace))]...)
		ok := batch[:0]
		for _, req := range batch {
			if int(req.Node) < len(r.isLeaf) && r.isLeaf[req.Node] {
				ok = append(ok, req)
			}
		}
		if len(ok) == 0 {
			continue
		}
		if _, err := r.Ingest(ok); err != nil {
			t.Fatal(err)
		}
	}
	checkReconciled(t, r)
}
