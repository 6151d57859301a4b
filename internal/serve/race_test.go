package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Race-stress: N goroutines ingest disjoint slices of one trace
// concurrently. Each epoch pass runs inline on the Ingest call that
// crossed the boundary and adopts fresh placements into the shards while
// the other ingesters' batches keep serving. Run under -race in CI. The
// conservation law checked at the end — total served requests and total
// returned service cost equal the sums of the per-shard counters, and the
// aggregate service load sums to the same cost — holds for every
// interleaving.
func TestClusterRaceStress(t *testing.T) {
	tr := tree.SCICluster(3, 5, 16, 8)
	const (
		objects   = 16
		ingesters = 6
		batchSize = 100
		batches   = 24 // per ingester
	)
	trace := workload.HotspotMigration(rand.New(rand.NewSource(17)), tr, objects,
		ingesters*batches*batchSize, 5, 0.7, 0.1)

	c, err := NewCluster(tr, objects, Options{
		Shards:        4,
		EpochRequests: 900,
		Threshold:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg        sync.WaitGroup
		totalCost atomic.Int64
	)
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := trace[g*batches*batchSize : (g+1)*batches*batchSize]
			for i := 0; i < len(part); i += batchSize {
				cost, err := c.Ingest(part[i : i+batchSize])
				if err != nil {
					t.Error(err)
					return
				}
				totalCost.Add(cost)
			}
		}(g)
	}
	wg.Wait()
	// One synchronous pass folds the drift served since the last crossing.
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Requests != int64(len(trace)) {
		t.Fatalf("served %d requests, ingested %d", st.Requests, len(trace))
	}
	if st.ServiceCost != totalCost.Load() {
		t.Fatalf("per-shard service cost %d != sum of Ingest returns %d", st.ServiceCost, totalCost.Load())
	}
	var serviceSum int64
	for _, l := range c.ServiceLoad() {
		serviceSum += l
	}
	if serviceSum != totalCost.Load() {
		t.Fatalf("aggregate service load %d != total returned cost %d", serviceSum, totalCost.Load())
	}
	if st.Epochs == 0 {
		t.Fatal("no epoch passes ran during the stress")
	}
	// Every object's copy set must be live and owned by the right shard.
	for x := 0; x < objects; x++ {
		if len(c.Copies(x)) == 0 {
			t.Fatalf("object %d lost its copies", x)
		}
	}
	t.Logf("epochs %d, drifted %d, moved %d, max edge load %d",
		st.Epochs, st.Drifted, st.AdoptMoved, c.MaxEdgeLoad())
}

// Race-stress for live reconfiguration: ingesters hammer the stable rings
// while a reconfigurer repeatedly fails the tail ring out of the fabric
// and grafts a replacement back in, and the ingesters' crossings run
// inline epoch passes throughout. Run under -race in CI. The tree is laid
// out so the doomed ring occupies the tail IDs: removals and re-grafts
// leave every stable leaf's ID unchanged, which is what lets the
// ingesters keep publishing batches without coordinating on remaps.
// Checked at the end: no Ingest or Reconfigure error, exact request
// conservation across all topology generations, every object still holds
// copies, and the service loads never exceed the returned costs (removed
// switches may take dropped service history with them, never add any).
func TestReconfigureRaceStress(t *testing.T) {
	tr := tree.SCICluster(4, 6, 32, 16) // ring3 (bus 22, procs 23..28) is the doomed tail
	const (
		objects    = 16
		ingesters  = 5
		batchSize  = 80
		batches    = 30 // per ingester
		reconfigs  = 8  // alternating remove / re-graft
		doomedRing = tree.NodeID(22)
	)
	var stable []tree.NodeID
	for _, v := range tr.Leaves() {
		if v < doomedRing {
			stable = append(stable, v)
		}
	}
	rng := rand.New(rand.NewSource(33))
	trace := make([]workload.TraceEvent, ingesters*batches*batchSize)
	for i := range trace {
		trace[i] = workload.TraceEvent{
			Object: rng.Intn(objects),
			Node:   stable[rng.Intn(len(stable))],
			Write:  rng.Float64() < 0.1,
		}
	}

	c, err := NewCluster(tr, objects, Options{
		Shards:        4,
		EpochRequests: 700,
		Threshold:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg        sync.WaitGroup
		totalCost atomic.Int64
	)
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := trace[g*batches*batchSize : (g+1)*batches*batchSize]
			for i := 0; i < len(part); i += batchSize {
				cost, err := c.Ingest(part[i : i+batchSize])
				if err != nil {
					t.Error(err)
					return
				}
				totalCost.Add(cost)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reconfigs; i++ {
			var d topo.Diff
			if i%2 == 0 {
				d.Remove = []tree.NodeID{doomedRing}
			} else {
				d.Add = []topo.Graft{{Kind: tree.Bus, Name: "ring3", Bandwidth: 32, Parent: 0, SwitchBandwidth: 16}}
				for j := 0; j < 6; j++ {
					d.Add = append(d.Add, topo.Graft{Kind: tree.Processor, ParentAdded: 1})
				}
			}
			if _, err := c.Reconfigure(d); err != nil {
				t.Error(err)
				return
			}
			// A read through the guarded accessors between swaps exercises
			// the topology-consistency locking.
			_ = c.MaxEdgeLoad()
		}
	}()
	wg.Wait()
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Requests != int64(len(trace)) {
		t.Fatalf("served %d requests, ingested %d", st.Requests, len(trace))
	}
	if st.ServiceCost != totalCost.Load() {
		t.Fatalf("per-shard service cost %d != sum of Ingest returns %d", st.ServiceCost, totalCost.Load())
	}
	if st.Reconfigs != reconfigs {
		t.Fatalf("completed %d reconfigures, want %d", st.Reconfigs, reconfigs)
	}
	var serviceSum int64
	for _, l := range c.ServiceLoad() {
		serviceSum += l
	}
	if serviceSum > totalCost.Load() {
		t.Fatalf("aggregate service load %d exceeds total returned cost %d", serviceSum, totalCost.Load())
	}
	for x := 0; x < objects; x++ {
		if len(c.Copies(x)) == 0 {
			t.Fatalf("object %d lost its copies", x)
		}
	}
	t.Logf("epochs %d, reconfigs %d, moved %d, max edge load %d",
		st.Epochs, st.Reconfigs, st.AdoptMoved, c.MaxEdgeLoad())
}
