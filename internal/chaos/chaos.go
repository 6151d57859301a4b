// Package chaos is the adversarial churn / fault-injection harness for
// the serving layer: it drives a live serve.Cluster with concurrent
// ingest traffic while a deterministic, seedable injector executes a
// scripted sequence of compound topology faults — cascading ring
// failures, flapping bandwidth (brownout/recover cycles), scale-out
// under a write storm — through Reconfigure, with a jammer provoking
// concurrent reconfiguration attempts that must fail fast with
// serve.ErrReconfigInProgress, never deadlock or corrupt.
//
// Determinism contract: a Scenario plus Options is a pure function of
// Options.Seed — the traffic every ingester generates, the fault script,
// and the diff built for each fault are all derived from seeded PRNGs and
// the scripted thresholds, so a failing (scenario, seed) pair reproduces.
// The goroutine interleaving is NOT controlled (that is the point): the
// conservation invariants Run checks at the end — exact request
// conservation, the service-cost ledger closing exactly through dropped
// switch loads, no requested object left copyless — must hold under
// EVERY interleaving, and the race tests run scenarios under -race to
// widen the schedules explored.
//
// The topology discipline mirrors the serving race tests: clusters are
// SCI ring-of-rings layouts and faults only ever remove the TAIL ring
// (or re-graft one), so every stable leaf keeps its ID across all
// topology generations and ingesters can keep publishing batches without
// coordinating on remaps — which is exactly what lets faults land at
// arbitrary points of the ingest stream.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hbn/internal/obs"
	"hbn/internal/serve"
	"hbn/internal/topo"
	"hbn/internal/tree"
)

// Kind is one fault type the injector can apply.
type Kind int

const (
	// RemoveTailRing fails the current tail ring (its bus and all its
	// processors) out of the fabric. Skipped (recorded, not applied) when
	// only Scenario.StableRings rings remain — the stable rings carry the
	// ingest traffic and must survive.
	RemoveTailRing Kind = iota
	// AddRing grafts a fresh ring of Scenario.Procs processors at the tail
	// — the recover half of a failover flap, and the scale-out fault.
	AddRing
	// Brownout halves the first stable ring's bus bandwidth and its uplink
	// switch bandwidth (an identity-remap diff: pure bandwidth change).
	Brownout
	// Recover restores the bandwidths Brownout halved.
	Recover
	numKinds int = iota
)

func (k Kind) String() string {
	switch k {
	case RemoveTailRing:
		return "remove-tail-ring"
	case AddRing:
		return "add-ring"
	case Brownout:
		return "brownout"
	case Recover:
		return "recover"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one scripted injection: Kind fires once at least After
// requests have been ingested (faults fire in script order, so a later
// fault never overtakes an earlier one).
type Fault struct {
	After int64
	Kind  Kind
}

// Scenario is the static shape of one chaos run: the topology and the
// fault script. Traffic parameters live in Options.
type Scenario struct {
	Name string
	// Rings/Procs/BusBW/SwitchBW describe the initial
	// tree.SCICluster(Rings, Procs, BusBW, SwitchBW) fabric.
	Rings, Procs    int
	BusBW, SwitchBW int64
	// StableRings is how many leading rings ingest traffic addresses (and
	// RemoveTailRing must preserve). Must be >= 1 and <= Rings.
	StableRings int
	// Faults is the injection script, fired in order.
	Faults []Fault
}

// Options tune the traffic and the cluster under test.
type Options struct {
	// Seed derives every PRNG in the run.
	Seed int64
	// Objects / Ingesters / Batch / Batches shape the traffic: Ingesters
	// goroutines each publish Batches batches of Batch requests drawn from
	// the stable leaves. Defaults: 16 objects, 4 ingesters, 64 requests,
	// 24 batches.
	Objects, Ingesters, Batch, Batches int
	// WriteFrac is the write fraction of the generated traffic (default
	// 0.1; a write storm is a scenario with WriteFrac near 1).
	WriteFrac float64
	// Shards / EpochRequests / Threshold configure the cluster
	// (serve.Options). Defaults: 4 shards, epoch every half of the total
	// trace, threshold 3.
	Shards        int
	EpochRequests int64
	Threshold     int
	// Warmup requests are ingested single-threaded before the concurrent
	// phase, addressed uniformly over ALL leaves — doomed rings included —
	// so tail-ring removals actually drop accumulated load and the
	// conservation ledger is exercised with nonzero drops. Default: 4
	// batches' worth; negative disables.
	Warmup int
	// Pace is a per-batch ingester sleep stretching the traffic in time so
	// scripted faults land mid-stream instead of after it. Default 0.
	Pace time.Duration
	// Jam adds a goroutine that repeatedly attempts an identity
	// reconfiguration for the duration of the run; attempts rejected with
	// ErrReconfigInProgress are counted in Result.Busy (and prove the
	// typed fail-fast path under real concurrency), successful ones are
	// ordinary identity swaps.
	Jam bool
}

func (o *Options) defaults() {
	if o.Objects <= 0 {
		o.Objects = 16
	}
	if o.Ingesters <= 0 {
		o.Ingesters = 4
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.Batches <= 0 {
		o.Batches = 24
	}
	if o.WriteFrac == 0 {
		o.WriteFrac = 0.1
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.EpochRequests == 0 {
		o.EpochRequests = int64(o.Ingesters*o.Batch*o.Batches) / 2
	}
	if o.Warmup == 0 {
		o.Warmup = 4 * o.Batch
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
}

// Result is what one chaos run measured. The invariants themselves are
// checked inside Run (a violation is returned as an error, so every
// caller — tests, fuzzers, the bench — gets them for free).
type Result struct {
	Requests  int64 // requests ingested and served (conserved exactly)
	TotalCost int64 // Σ costs Ingest returned
	// FaultsApplied counts faults that ran; FaultsSkipped counts
	// RemoveTailRing faults skipped to protect the stable rings.
	FaultsApplied, FaultsSkipped int
	// Busy counts reconfiguration attempts (jammer or injector retry)
	// rejected with ErrReconfigInProgress.
	Busy int
	// MaxIngestStall is the largest ReconfigStats.MaxIngestStall over all
	// applied faults; Dropped* accumulate the corresponding ledger fields.
	MaxIngestStall                  time.Duration
	DroppedLoad, DroppedServiceLoad int64
	// P50 / P99 / Max are per-batch Ingest latency percentiles over every
	// batch of every ingester, read from a shared obs.Histogram (log2
	// buckets, so quantiles carry at most 2x bucket error; Max is exact).
	P50, P99, Max time.Duration
}

// Run executes one scenario and verifies the conservation invariants.
// A non-nil error means either a hard failure (ingest/reconfigure error)
// or an invariant violation; the *Result is returned alongside whenever
// the run got far enough to measure anything.
func Run(s Scenario, o Options) (*Result, error) {
	o.defaults()
	if s.Rings < 1 || s.Procs < 1 {
		return nil, fmt.Errorf("chaos: scenario needs at least one ring and one processor, got %dx%d", s.Rings, s.Procs)
	}
	if s.StableRings < 1 || s.StableRings > s.Rings {
		return nil, fmt.Errorf("chaos: %d stable rings outside [1,%d]", s.StableRings, s.Rings)
	}
	if s.BusBW <= 0 {
		s.BusBW = 16
	}
	if s.SwitchBW <= 0 {
		s.SwitchBW = 8
	}
	tr := tree.SCICluster(s.Rings, s.Procs, s.BusBW, s.SwitchBW)

	// Stable leaves: the processors of the first StableRings rings. The
	// SCI layout places ring i's bus at 1+i*(Procs+1) with its processors
	// following, so these IDs survive every tail-ring removal.
	var stable []tree.NodeID
	for _, v := range tr.Leaves() {
		if int(v) < 1+s.StableRings*(s.Procs+1) {
			stable = append(stable, v)
		}
	}

	c, err := serve.NewCluster(tr, o.Objects, serve.Options{
		Shards:        o.Shards,
		EpochRequests: o.EpochRequests,
		Threshold:     o.Threshold,
		Parallelism:   2, // keep scheduler pressure bounded under -race
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer c.Close()

	res := &Result{}
	var (
		ingested  atomic.Int64 // requests published so far (fault triggers key off this)
		totalCost atomic.Int64
		busy      atomic.Int64
		touched   = make([]atomic.Bool, o.Objects)
		wg        sync.WaitGroup
		mu        sync.Mutex // guards errs, fault accounting
		errs      []error
		lat       obs.Histogram // per-batch Ingest latency; concurrent-safe
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	// fire applies one scripted fault (retrying losses against the jammer)
	// and books its stats. Ring bookkeeping is sequential injector state,
	// never read elsewhere; faults always run one at a time, in script
	// order.
	rings := s.Rings
	fire := func(f Fault) error {
		var d topo.Diff
		switch f.Kind {
		case RemoveTailRing:
			if rings <= s.StableRings {
				mu.Lock()
				res.FaultsSkipped++
				mu.Unlock()
				return nil
			}
			d.Remove = []tree.NodeID{tree.NodeID(1 + (rings-1)*(s.Procs+1))}
		case AddRing:
			d.Add = []topo.Graft{{Kind: tree.Bus, Bandwidth: s.BusBW, Parent: 0, SwitchBandwidth: s.SwitchBW}}
			for j := 0; j < s.Procs; j++ {
				d.Add = append(d.Add, topo.Graft{Kind: tree.Processor, ParentAdded: 1})
			}
		case Brownout, Recover:
			// Ring 0's bus (node 1) and its uplink are stable across every
			// generation; the flap halves and restores them.
			bw, sw := s.BusBW/2, s.SwitchBW/2
			if f.Kind == Recover {
				bw, sw = s.BusBW, s.SwitchBW
			}
			uplink, ok := c.Tree().EdgeBetween(0, 1)
			if !ok {
				return fmt.Errorf("chaos: ring 0 uplink missing")
			}
			d.SetBusBandwidth = []topo.BusBandwidth{{Node: 1, Bandwidth: max(bw, 1)}}
			d.SetSwitchBandwidth = []topo.SwitchBandwidth{{Edge: uplink, Bandwidth: max(sw, 1)}}
		default:
			return fmt.Errorf("chaos: unknown fault kind %d", int(f.Kind))
		}
		for {
			rs, err := c.Reconfigure(d)
			if errors.Is(err, serve.ErrReconfigInProgress) {
				busy.Add(1)
				continue // the jammer got in; retry until we win the flag
			}
			if err != nil {
				return fmt.Errorf("chaos: fault %v: %w", f.Kind, err)
			}
			switch f.Kind {
			case RemoveTailRing:
				rings--
			case AddRing:
				rings++
			}
			mu.Lock()
			res.FaultsApplied++
			res.DroppedLoad += rs.DroppedLoad
			res.DroppedServiceLoad += rs.DroppedServiceLoad
			if rs.MaxIngestStall > res.MaxIngestStall {
				res.MaxIngestStall = rs.MaxIngestStall
			}
			mu.Unlock()
			return nil
		}
	}

	// Warmup: deterministic single-threaded traffic over ALL leaves —
	// doomed rings included — so tail-ring removals drop real accumulated
	// load and the conservation ledger is exercised with nonzero drops.
	if o.Warmup > 0 {
		rng := rand.New(rand.NewSource(o.Seed ^ 0x5ca1ab1e))
		leaves := tr.Leaves()
		batch := make([]serve.Request, o.Batch)
		for n := 0; n < o.Warmup; n += len(batch) {
			for i := range batch {
				x := rng.Intn(o.Objects)
				touched[x].Store(true)
				batch[i] = serve.Request{
					Object: x,
					Node:   leaves[rng.Intn(len(leaves))],
					Write:  rng.Float64() < o.WriteFrac,
				}
			}
			cost, err := c.Ingest(batch)
			if err != nil {
				return res, fmt.Errorf("chaos: warmup: %w", err)
			}
			totalCost.Add(cost)
			ingested.Add(int64(len(batch)))
		}
	}

	mkBatch := func(rng *rand.Rand, batch []serve.Request) {
		for i := range batch {
			x := rng.Intn(o.Objects)
			touched[x].Store(true)
			batch[i] = serve.Request{
				Object: x,
				Node:   stable[rng.Intn(len(stable))],
				Write:  rng.Float64() < o.WriteFrac,
			}
		}
	}

	if o.Ingesters == 1 && !o.Jam {
		// Fully deterministic mode: one goroutine interleaves the script
		// with the traffic at exact batch boundaries, so the same
		// (scenario, seed) replays the identical execution — the
		// reproduce-a-crasher configuration.
		rng := rand.New(rand.NewSource(o.Seed))
		batch := make([]serve.Request, o.Batch)
		fi := 0
		for b := 0; b <= o.Batches; b++ {
			for fi < len(s.Faults) && (b == o.Batches || ingested.Load() >= s.Faults[fi].After) {
				if err := fire(s.Faults[fi]); err != nil {
					fail(err)
					break
				}
				fi++
			}
			if b == o.Batches || len(errs) > 0 {
				break
			}
			mkBatch(rng, batch)
			t0 := time.Now()
			cost, err := c.Ingest(batch)
			if err != nil {
				fail(fmt.Errorf("chaos: batch %d: %w", b, err))
				break
			}
			lat.ObserveSince(t0)
			totalCost.Add(cost)
			ingested.Add(int64(o.Batch))
		}
	} else {
		// Concurrent mode: ingesters, injector and jammer race freely.
		// Per-ingester seeds keep each traffic stream itself deterministic;
		// only the interleaving varies, which is exactly what the
		// invariants must survive.
		for g := 0; g < o.Ingesters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(o.Seed + int64(g)*1_000_003))
				batch := make([]serve.Request, o.Batch)
				for b := 0; b < o.Batches; b++ {
					mkBatch(rng, batch)
					t0 := time.Now()
					cost, err := c.Ingest(batch)
					if err != nil {
						fail(fmt.Errorf("chaos: ingester %d batch %d: %w", g, b, err))
						return
					}
					lat.ObserveSince(t0)
					totalCost.Add(cost)
					ingested.Add(int64(o.Batch))
					if o.Pace > 0 {
						time.Sleep(o.Pace)
					}
				}
			}(g)
		}

		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			total := int64(o.Warmup) + int64(o.Ingesters*o.Batch*o.Batches)
			for _, f := range s.Faults {
				// Fire once the stream has advanced past the threshold (or
				// is exhausted — scripts always complete).
				for ingested.Load() < min(f.After, total) {
					time.Sleep(50 * time.Microsecond)
				}
				if err := fire(f); err != nil {
					fail(err)
					return
				}
			}
		}()

		// The jammer: concurrent identity reconfigurations racing the
		// injector and each other — every loss is a typed
		// ErrReconfigInProgress, every win an identity swap, neither may
		// corrupt serving state.
		if o.Jam {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					_, err := c.Reconfigure(topo.Diff{})
					switch {
					case errors.Is(err, serve.ErrReconfigInProgress):
						busy.Add(1)
					case err != nil:
						fail(fmt.Errorf("chaos: jammer: %w", err))
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
		}
		wg.Wait()
	}
	if err := c.ResolveNow(); err != nil {
		errs = append(errs, fmt.Errorf("chaos: final resolve: %w", err))
	}
	if err := c.Close(); err != nil {
		errs = append(errs, fmt.Errorf("chaos: close: %w", err))
	}
	res.Requests = ingested.Load()
	res.TotalCost = totalCost.Load()
	res.Busy = int(busy.Load())
	if s := lat.Snapshot(); s.Count > 0 {
		res.P50 = time.Duration(s.Quantile(0.5))
		res.P99 = time.Duration(s.Quantile(0.99))
		res.Max = time.Duration(s.Max)
	}
	if len(errs) > 0 {
		return res, errs[0]
	}

	// The conservation invariants. These must hold under every
	// interleaving of ingesters, injector, jammer and epoch passes.
	if got := c.Stats().Requests; got != res.Requests {
		return res, fmt.Errorf("chaos: %s: served %d requests, ingested %d", s.Name, got, res.Requests)
	}
	if got := c.Stats().ServiceCost; got != res.TotalCost {
		return res, fmt.Errorf("chaos: %s: per-shard cost %d != sum of Ingest returns %d", s.Name, got, res.TotalCost)
	}
	var serviceSum int64
	for _, l := range c.ServiceLoad() {
		serviceSum += l
	}
	if serviceSum+res.DroppedServiceLoad != res.TotalCost {
		return res, fmt.Errorf("chaos: %s: ledger open: service %d + dropped %d != cost %d",
			s.Name, serviceSum, res.DroppedServiceLoad, res.TotalCost)
	}
	for x := 0; x < o.Objects; x++ {
		if touched[x].Load() && len(c.Copies(x)) == 0 {
			return res, fmt.Errorf("chaos: %s: object %d lost all copies", s.Name, x)
		}
	}

	// Obs-vs-ledger reconciliation: the telemetry counters are booked on
	// an independent path (padded atomics inside the shard critical
	// sections) and must agree EXACTLY with the conservation ledger at
	// quiescence — under every interleaving, after every fault script.
	if ob := c.Obs(); ob != nil {
		st := c.Stats()
		checks := []struct {
			name      string
			got, want int64
		}{
			{"events", ob.Shards.Total(obs.SlotEvents), st.Requests},
			{"cost", ob.Shards.Total(obs.SlotCost), st.ServiceCost},
			{"dropped load", ob.Shards.Total(obs.SlotDroppedLoad), st.DroppedLoad},
			{"dropped cost", ob.Shards.Total(obs.SlotDroppedCost), st.DroppedServiceLoad},
			{"drift fires", ob.Global.Load(obs.SlotDriftFires), st.DriftEpochs},
			{"epoch passes", ob.EpochPass.Count(), st.Epochs},
		}
		for _, ck := range checks {
			if ck.got != ck.want {
				return res, fmt.Errorf("chaos: %s: obs %s %d != ledger %d", s.Name, ck.name, ck.got, ck.want)
			}
		}
	}
	return res, nil
}

// Scenarios returns the named compound scenarios the churn tests run:
// each composes faults the single-event generators
// don't — cascading failovers (one removal while the previous swap's
// traffic shift is still settling), link flapping (brownout/recover
// cycles), scale-out racing a write storm (the caller sets WriteFrac
// high), and failover/regraft churn. after(i) thresholds are fractions
// of the given total request count.
func Scenarios(total int64) []Scenario {
	after := func(num, den int64) int64 { return total * num / den }
	return []Scenario{
		{
			Name: "cascade-failover", Rings: 5, Procs: 4, BusBW: 32, SwitchBW: 16, StableRings: 2,
			Faults: []Fault{
				{After: after(1, 6), Kind: RemoveTailRing},
				{After: after(2, 6), Kind: RemoveTailRing},
				{After: after(3, 6), Kind: RemoveTailRing},
				{After: after(4, 6), Kind: AddRing},
				{After: after(5, 6), Kind: RemoveTailRing},
			},
		},
		{
			Name: "flapping-links", Rings: 3, Procs: 5, BusBW: 32, SwitchBW: 16, StableRings: 3,
			Faults: []Fault{
				{After: after(1, 8), Kind: Brownout},
				{After: after(2, 8), Kind: Recover},
				{After: after(3, 8), Kind: Brownout},
				{After: after(4, 8), Kind: Recover},
				{After: after(5, 8), Kind: Brownout},
				{After: after(6, 8), Kind: Recover},
			},
		},
		{
			Name: "scaleout-write-storm", Rings: 3, Procs: 4, BusBW: 32, SwitchBW: 16, StableRings: 3,
			Faults: []Fault{
				{After: after(1, 4), Kind: AddRing},
				{After: after(2, 4), Kind: AddRing},
				{After: after(3, 4), Kind: Brownout},
			},
		},
		{
			Name: "failover-regraft-churn", Rings: 4, Procs: 4, BusBW: 32, SwitchBW: 16, StableRings: 3,
			Faults: []Fault{
				{After: after(1, 6), Kind: RemoveTailRing},
				{After: after(2, 6), Kind: AddRing},
				{After: after(3, 6), Kind: RemoveTailRing},
				{After: after(4, 6), Kind: Brownout},
				{After: after(5, 6), Kind: AddRing},
			},
		},
	}
}
