package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hbn/internal/dynamic"
	"hbn/internal/serve"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The -serve benchmark drives the sharded online serving layer with the
// phase-shifting trace scenarios and reports, per scenario: ingest
// throughput, the max edge load (congestion numerator) of the epoch
// re-solving cluster against the no-re-solve baseline, and both against
// the clairvoyant static optimum that saw the whole trace up front. The
// per-epoch log records how the re-solver tracks the drifting traffic.

// serveScenario is one named trace generator at benchmark scale.
type serveScenario struct {
	name string
	gen  func(rng *rand.Rand, t *tree.Tree, numObjects, n int) []workload.TraceEvent
}

func serveScenarios() []serveScenario {
	return []serveScenario{
		{"drifting-zipf", func(rng *rand.Rand, t *tree.Tree, o, n int) []workload.TraceEvent {
			return workload.DriftingZipf(rng, t, o, n, 6, 1.0, 0.03)
		}},
		{"diurnal", func(rng *rand.Rand, t *tree.Tree, o, n int) []workload.TraceEvent {
			return workload.Diurnal(rng, t, o, n, n/5, 0.05)
		}},
		{"hotspot-migration", func(rng *rand.Rand, t *tree.Tree, o, n int) []workload.TraceEvent {
			return workload.HotspotMigration(rng, t, o, n, 5, 0.7, 0.05)
		}},
		{"write-storm", func(rng *rand.Rand, t *tree.Tree, o, n int) []workload.TraceEvent {
			return workload.WriteStorm(rng, t, o, n, 4, 0.05)
		}},
	}
}

// jsonEpoch is one epoch pass in -json mode.
type jsonEpoch struct {
	Epoch            int64   `json:"epoch"`
	Requests         int64   `json:"requests"`
	Drifted          int     `json:"drifted"`
	Moved            int64   `json:"moved"`
	StaticCongestion float64 `json:"static_congestion"`
	MaxEdgeLoad      int64   `json:"max_edge_load"`
}

// jsonServe is one scenario's serving-benchmark outcome in -json mode.
type jsonServe struct {
	Scenario        string  `json:"scenario"`
	Requests        int     `json:"requests"`
	Shards          int     `json:"shards"`
	EpochRequests   int64   `json:"epoch_requests"`
	ThroughputRps   float64 `json:"throughput_rps"`
	MaxEdgeLoad     int64   `json:"max_edge_load"`
	BaselineMaxEdge int64   `json:"baseline_max_edge_load"`
	StaticMaxEdge   int64   `json:"static_max_edge_load"`
	TotalLoad       int64   `json:"total_load"`
	BaselineTotal   int64   `json:"baseline_total_load"`
	StaticTotal     int64   `json:"static_total_load"`
	Epochs          int64   `json:"epochs"`
	Drifted         int64   `json:"drifted"`
	AdoptMoved      int64   `json:"adopt_moved"`
	ResolveMS       float64 `json:"resolve_ms"`
	// Latency percentiles come straight off the cluster's own obs
	// registry — the benchmark keeps no timing state of its own.
	IngestP50US     float64     `json:"ingest_p50_us"`
	IngestP99US     float64     `json:"ingest_p99_us"`
	EpochP99MS      float64     `json:"epoch_p99_ms"`
	VsBaselineRatio float64     `json:"vs_baseline_ratio"`
	VsStaticRatio   float64     `json:"vs_static_ratio"`
	EpochLog        []jsonEpoch `json:"epoch_log,omitempty"`
}

// runServeBench serves every scenario through a re-solving cluster and a
// no-re-solve baseline on the same trace and network.
func runServeBench(quick bool, seed int64) ([]jsonServe, error) {
	t := tree.SCICluster(8, 8, 32, 16)
	// Scale note: the object space is kept large relative to the trace so
	// per-object traffic is moderate — the serving regime where threshold
	// dynamics alone are slow to converge and epoch re-solve has real
	// information advantage (millions of requests spread over many
	// objects, not a handful of endlessly re-learned hot ones).
	requests := 200000
	objects := 256
	if quick {
		requests = 20000
		objects = 64
	}
	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	if shards < 4 {
		shards = 4 // sharding is exact at any count; keep the shape comparable
	}
	epoch := int64(requests / 50)
	const batch = 512

	var out []jsonServe
	for i, sc := range serveScenarios() {
		trace := sc.gen(rand.New(rand.NewSource(seed+int64(i))), t, objects, requests)

		run := func(epochReqs int64) (*serve.Cluster, float64, error) {
			c, err := serve.NewCluster(t, objects, serve.Options{
				Shards:        shards,
				EpochRequests: epochReqs,
				Threshold:     8,
			})
			if err != nil {
				return nil, 0, err
			}
			start := time.Now()
			for lo := 0; lo < len(trace); lo += batch {
				hi := lo + batch
				if hi > len(trace) {
					hi = len(trace)
				}
				if _, err := c.Ingest(trace[lo:hi]); err != nil {
					return nil, 0, err
				}
			}
			rps := float64(len(trace)) / time.Since(start).Seconds()
			return c, rps, nil
		}

		resolving, rps, err := run(epoch)
		if err != nil {
			return nil, fmt.Errorf("serve %s: %w", sc.name, err)
		}
		baseline, _, err := run(0)
		if err != nil {
			return nil, fmt.Errorf("serve %s baseline: %w", sc.name, err)
		}
		static, err := dynamic.StaticOffline(t, objects, trace)
		if err != nil {
			return nil, fmt.Errorf("serve %s static: %w", sc.name, err)
		}

		st := resolving.Stats()
		js := jsonServe{
			Scenario:        sc.name,
			Requests:        len(trace),
			Shards:          shards,
			EpochRequests:   epoch,
			ThroughputRps:   rps,
			MaxEdgeLoad:     resolving.MaxEdgeLoad(),
			BaselineMaxEdge: baseline.MaxEdgeLoad(),
			StaticMaxEdge:   static.MaxEdgeLoad(),
			TotalLoad:       resolving.TotalLoad(),
			BaselineTotal:   baseline.TotalLoad(),
			StaticTotal:     static.TotalLoad,
			Epochs:          st.Epochs,
			Drifted:         st.Drifted,
			AdoptMoved:      st.AdoptMoved,
			ResolveMS:       float64(st.ResolveTime.Microseconds()) / 1000,
		}
		if s := resolving.Obs().IngestBatch.Snapshot(); s.Count > 0 {
			js.IngestP50US = float64(s.Quantile(0.5)) / 1e3
			js.IngestP99US = float64(s.Quantile(0.99)) / 1e3
		}
		if s := resolving.Obs().EpochPass.Snapshot(); s.Count > 0 {
			js.EpochP99MS = nsToMS(s.Quantile(0.99))
		}
		if js.BaselineMaxEdge > 0 {
			js.VsBaselineRatio = float64(js.MaxEdgeLoad) / float64(js.BaselineMaxEdge)
		}
		if js.StaticMaxEdge > 0 {
			js.VsStaticRatio = float64(js.MaxEdgeLoad) / float64(js.StaticMaxEdge)
		}
		for _, ep := range resolving.EpochLog() {
			js.EpochLog = append(js.EpochLog, jsonEpoch{
				Epoch:            ep.Epoch,
				Requests:         ep.Requests,
				Drifted:          ep.Drifted,
				Moved:            ep.Moved,
				StaticCongestion: ep.StaticCongestion,
				MaxEdgeLoad:      ep.MaxEdgeLoad,
			})
		}
		out = append(out, js)
	}
	return out, nil
}

// printServeBench renders the -serve results as an aligned text table.
func printServeBench(results []jsonServe) {
	fmt.Printf("serving benchmark: %d requests, %d shards, epoch every %d requests\n",
		results[0].Requests, results[0].Shards, results[0].EpochRequests)
	fmt.Printf("%-18s %12s %10s %14s %14s %14s %8s %10s %9s\n",
		"scenario", "Mreq/s", "p99-us", "max-edge", "base-max-edge", "static-max", "epochs", "moved", "vs-base")
	for _, r := range results {
		fmt.Printf("%-18s %12.2f %10.1f %14d %14d %14d %8d %10d %9.2f\n",
			r.Scenario, r.ThroughputRps/1e6, r.IngestP99US, r.MaxEdgeLoad, r.BaselineMaxEdge, r.StaticMaxEdge,
			r.Epochs, r.AdoptMoved, r.VsBaselineRatio)
	}
}
