package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"hbn/internal/dynamic"
	"hbn/internal/serve"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The -ratio benchmark measures the online strategy's competitive ratio:
// its max relative congestion over the clairvoyant static optimum that
// saw the whole trace up front (the offline comparator in the paper's
// competitive analysis). Each scenario runs twice on identical traces
// and seeds — once with the pre-PR-8 strategy (flat hop threshold,
// eager write contraction, cadence-only epochs) and once with the fixed
// strategy: bandwidth-aware per-edge budgets, the write-contraction
// budget, and drift-triggered epochs with a slow fallback cadence (the
// trigger replaces most cadence passes, and every cadence adoption
// churns copy sets whether or not traffic moved). The gap the fix closes
// is measured directly, not inferred. The fifth scenario is the brownout
// churn event from -reconfig: the hot region loses 3/4 of its bandwidth
// mid-trace, and the post-diff tree prices both the online runs and the
// static optimum (IDs are untouched by the diff).

// ratioDriftThreshold arms the drift-triggered epoch pass in the fixed
// configuration. The trigger fires when the noise-floored L1 distance
// between the adopted and current frequency vectors (weighted per
// drifted object, range [0,2]) crosses this value. 0.15 was tuned on
// the drifting-Zipf trace: high enough that the noise floor keeps
// steady traffic from firing it, low enough that every phase shift
// fires within a fraction of an epoch.
const ratioDriftThreshold = 0.15

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

// jsonRatio is one scenario's competitive-ratio outcome in -json mode.
type jsonRatio struct {
	Scenario         string  `json:"scenario"`
	Requests         int     `json:"requests"`
	Shards           int     `json:"shards"`
	StaticCongestion float64 `json:"static_congestion"`
	PreCongestion    float64 `json:"pre_congestion"`
	PostCongestion   float64 `json:"post_congestion"`
	// PreRatio / PostRatio are online congestion over the static optimum
	// for the pre-PR-8 and the fixed configurations respectively.
	PreRatio  float64 `json:"pre_ratio"`
	PostRatio float64 `json:"post_ratio"`
	// Improvement is the plain ratio quotient pre/post. GapClosure is the
	// shrink factor of the excess over the optimum, (pre-1)/(post-1) —
	// the "online-vs-optimal gap" this change targets: a strategy at
	// ratio 1.0 has no gap at all, so the quotient alone understates a
	// post ratio approaching 1.
	Improvement float64 `json:"improvement,omitempty"`
	GapClosure  float64 `json:"gap_closure,omitempty"`
	Epochs      int64   `json:"epochs"`
	DriftEpochs int64   `json:"drift_epochs"`
	// EpochP99MS is the p99 epoch-pass latency of the post (fixed)
	// configuration, read from the cluster's obs registry.
	EpochP99MS float64 `json:"epoch_p99_ms,omitempty"`
}

// ratioRun is one online serve of a trace: congestion of the accumulated
// edge loads priced on scoreT, the epoch counters, and the p99
// epoch-pass latency off the cluster's obs registry.
func ratioRun(t, scoreT *tree.Tree, objects int, opts serve.Options,
	trace []workload.TraceEvent, diff *topo.Diff) (float64, serve.Stats, float64, error) {
	c, err := serve.NewCluster(t, objects, opts)
	if err != nil {
		return 0, serve.Stats{}, 0, err
	}
	const batch = 512
	half := len(trace) / 2
	for lo := 0; lo < len(trace); lo += batch {
		if diff != nil && lo >= half && lo-batch < half {
			if _, err := c.Reconfigure(*diff); err != nil {
				return 0, serve.Stats{}, 0, err
			}
		}
		hi := min(lo+batch, len(trace))
		if _, err := c.Ingest(trace[lo:hi]); err != nil {
			return 0, serve.Stats{}, 0, err
		}
	}
	var epochP99 float64
	if s := c.Obs().EpochPass.Snapshot(); s.Count > 0 {
		epochP99 = nsToMS(s.Quantile(0.99))
	}
	return congestionOf(scoreT, c.EdgeLoad()), c.Stats(), epochP99, nil
}

// runRatioBench runs every scenario through the pre-PR-8 and the
// bandwidth-aware configurations and scores both against the static
// optimum, on the four phase-shifting trace scenarios at a fixed scale
// and seed.
func runRatioBench(quick bool, seed int64) ([]jsonRatio, error) {
	t := tree.SCICluster(8, 8, 32, 16)
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
		shards = 4
	}
	epoch := int64(requests / 50)

	type ratioScenario struct {
		name   string
		trace  []workload.TraceEvent
		scoreT *tree.Tree // prices loads and the static optimum
		diff   *topo.Diff // applied at the trace midpoint when set
	}
	var scenarios []ratioScenario
	for i, sc := range serveScenarios() {
		trace := sc.gen(rand.New(rand.NewSource(seed+int64(i))), t, objects, requests)
		scenarios = append(scenarios, ratioScenario{sc.name, trace, t, nil})
	}
	// Brownout churn: same construction as -reconfig's brownout scenario.
	// The diff only reduces bandwidths, so trace IDs carry across it and
	// the whole trace is priced on the post-diff tree — the regime the
	// online strategy must adapt to and the static optimum plans for.
	{
		ring := tree.NodeID(1)
		uplink, ok := t.EdgeBetween(0, ring)
		if !ok {
			return nil, fmt.Errorf("ratio brownout: no uplink for ring %d", ring)
		}
		var region []tree.NodeID
		for _, h := range t.Adj(ring) {
			if t.IsLeaf(h.To) {
				region = append(region, h.To)
			}
		}
		diff := topo.Diff{
			SetBusBandwidth:    []topo.BusBandwidth{{Node: ring, Bandwidth: max(1, t.NodeBandwidth(ring)/4)}},
			SetSwitchBandwidth: []topo.SwitchBandwidth{{Edge: uplink, Bandwidth: max(1, t.EdgeBandwidth(uplink)/4)}},
		}
		nt, _, err := topo.Apply(t, diff)
		if err != nil {
			return nil, fmt.Errorf("ratio brownout: %w", err)
		}
		trace := workload.Brownout(rand.New(rand.NewSource(seed+4)), t, objects, requests, region, 0.7, 0.05)
		scenarios = append(scenarios, ratioScenario{"brownout", trace, nt, &diff})
	}

	var out []jsonRatio
	for _, sc := range scenarios {
		static, err := dynamic.StaticOffline(sc.scoreT, objects, sc.trace)
		if err != nil {
			return nil, fmt.Errorf("ratio %s static: %w", sc.name, err)
		}
		staticCong := static.Congestion.Float()

		// pre is exactly the strategy before this change: flat hop
		// thresholds, eager write contraction, cadence-only epochs (all
		// defaults). post opts into the fix: bandwidth-scaled budgets,
		// lazy write contraction at the read threshold, and the drift
		// trigger checking a few times per old epoch — with the fallback
		// cadence stretched 5x, since the trigger catches real shifts and
		// each cadence adoption churns copy sets whether or not traffic
		// moved.
		pre := serve.Options{Shards: shards, EpochRequests: epoch, Threshold: 8}
		post := pre
		post.EpochRequests = 5 * epoch
		post.BandwidthAware = true
		post.WriteBudget = post.Threshold
		post.DriftThreshold = ratioDriftThreshold
		post.DriftCheckRequests = epoch / 16

		preCong, _, _, err := ratioRun(t, sc.scoreT, objects, pre, sc.trace, sc.diff)
		if err != nil {
			return nil, fmt.Errorf("ratio %s pre: %w", sc.name, err)
		}
		postCong, st, epochP99, err := ratioRun(t, sc.scoreT, objects, post, sc.trace, sc.diff)
		if err != nil {
			return nil, fmt.Errorf("ratio %s post: %w", sc.name, err)
		}

		js := jsonRatio{
			Scenario:         sc.name,
			Requests:         len(sc.trace),
			Shards:           shards,
			StaticCongestion: staticCong,
			PreCongestion:    preCong,
			PostCongestion:   postCong,
			Epochs:           st.Epochs,
			DriftEpochs:      st.DriftEpochs,
			EpochP99MS:       epochP99,
		}
		if staticCong > 0 {
			js.PreRatio = preCong / staticCong
			js.PostRatio = postCong / staticCong
		}
		if js.PostRatio > 0 {
			js.Improvement = js.PreRatio / js.PostRatio
		}
		if js.PostRatio > 1 && js.PreRatio > 1 {
			js.GapClosure = (js.PreRatio - 1) / (js.PostRatio - 1)
		}
		out = append(out, js)
	}
	return out, nil
}

// printRatioBench renders the -ratio results as an aligned table.
func printRatioBench(results []jsonRatio) {
	fmt.Printf("competitive-ratio benchmark: %d requests, %d shards, online congestion / clairvoyant static optimum\n",
		results[0].Requests, results[0].Shards)
	fmt.Printf("%-18s %11s %10s %10s %10s %10s %8s %8s %7s %6s\n",
		"scenario", "static", "pre-cong", "post-cong", "pre-ratio", "post-ratio", "improve", "gapclose", "epochs", "drift")
	for _, r := range results {
		fmt.Printf("%-18s %11.1f %10.1f %10.1f %10.2f %10.2f %8.2f %8.2f %7d %6d\n",
			r.Scenario, r.StaticCongestion, r.PreCongestion, r.PostCongestion,
			r.PreRatio, r.PostRatio, r.Improvement, r.GapClosure, r.Epochs, r.DriftEpochs)
	}
}

// checkRatioGuard compares the post (bandwidth-aware) competitive ratios
// against a recorded baseline BENCH file and reports every scenario
// whose ratio regressed by more than 10%. Scenarios absent from the
// baseline are errors too — a renamed scenario must re-baseline.
func checkRatioGuard(path string, results []jsonRatio) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ratio guard: %w", err)
	}
	var base jsonOutput
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("ratio guard: %s: %w", path, err)
	}
	baseline := make(map[string]float64, len(base.Ratio))
	for _, r := range base.Ratio {
		baseline[r.Scenario] = r.PostRatio
	}
	var bad []string
	for _, r := range results {
		want, ok := baseline[r.Scenario]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no baseline in %s", r.Scenario, path))
			continue
		}
		if want > 0 && r.PostRatio > want*1.10 {
			bad = append(bad, fmt.Sprintf("%s: ratio %.3f exceeds baseline %.3f by more than 10%%",
				r.Scenario, r.PostRatio, want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("ratio guard: competitive-ratio regression:\n  %s", joinLines(bad))
	}
	return nil
}

func joinLines(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += "\n  "
		}
		out += x
	}
	return out
}
