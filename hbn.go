// Package hbn is a library for static data management in hierarchical bus
// networks, reproducing "Data Management in Hierarchical Bus Networks"
// (F. Meyer auf der Heide, H. Räcke, M. Westermann, SPAA 2000).
//
// A hierarchical bus network is a tree whose leaves are processors and
// whose inner nodes are buses (the abstraction of SCI-style ring-of-rings
// fabrics). Given read/write frequencies of processors to shared data
// objects, the library computes a placement of (possibly replicated)
// object copies onto processors that minimizes congestion — the maximum,
// over switches and buses, of load divided by bandwidth:
//
//	b := hbn.NewNetworkBuilder()
//	bus := b.AddBus("ring", 16)
//	p0 := b.AddProcessor("p0")
//	p1 := b.AddProcessor("p1")
//	b.Connect(bus, p0, 1)
//	b.Connect(bus, p1, 1)
//	t := b.MustBuildHBN()
//
//	w := hbn.NewWorkload(1, t.Len())
//	w.AddReads(0, p0, 100)
//	w.AddWrites(0, p1, 10)
//
//	res, err := hbn.Solve(t, w)          // the paper's 7-approximation
//	rep := hbn.Evaluate(t, res.Final)    // exact loads and congestion
//
// Computing the optimum is NP-hard even on a 4-leaf star (the paper's
// Theorem 2.1, reproduced in internal/nphard); Solve runs the paper's
// extended-nibble strategy, which is provably within a factor 7 and in
// practice far closer (see EXPERIMENTS.md). The intermediate products —
// the nibble placement (a congestion lower bound), the deletion-trimmed
// placement and the mapping trace — are exposed on the Result for
// analysis; the nibble placement, its report and the certified lower
// bound are methods that compute their value on first call.
//
// # Performance
//
// The solver pipeline is object-parallel: nibble placement, deletion,
// leaf/inner partitioning, load accumulation and validation all shard
// over a worker pool controlled by Options.Parallelism (0, the default,
// means GOMAXPROCS; explicit values are capped there — the clamp lives in
// one place, internal/par.Workers; 1 runs sequentially). Parallel runs are
// bit-identical to sequential ones — every stage writes per-object results
// into pre-assigned slots and merges integer partials — so Parallelism is
// purely a throughput knob. Step 3 (mapping) shares load budgets across
// objects and always runs sequentially.
//
// Workloads that solve repeatedly hold a Solver, the reusable form of
// Solve. A Solver owns all per-stage scratch — nibble state, deletion
// buffers, the mapping runner, merge/validation tallies, the tracked
// evaluator of the final placement — and a record store that gives every
// object its own exact-size slabs for its placement records, so a warm
// Solve, and a warm Resolve whose objects keep their sizes, allocate a
// small constant (tens of allocations instead of the >11k of a cold run),
// and Resolve re-solves after a few objects' frequencies changed at cost
// proportional to the change:
//
//	s, _ := hbn.NewSolver(t)
//	res, _ := s.Solve(w)        // full pipeline, scratch retained
//	for drift := range updates {
//	    applyTo(w, drift)        // mutate frequencies in place
//	    res, _ = s.Resolve(drift.Objects) // Steps 1-2 only for those objects
//	}
//
// What is cached: per-object nibble copy sets and deletion outputs (Steps
// 1–2 are per-object decomposable), plus every object's tracked load
// contribution to the final report. Each per-object step — nibble
// placement, nearest-copy assignment, the load fold and validation —
// works on the closure of the object's support (the processors that
// request it, plus their ancestors), so re-solving an object costs in
// proportion to its traffic rather than to the network. The Step-1
// report is not kept at all: Result.NibblePlacement, NibbleReport and
// LowerBound compute it on first call, from the run's workload. What a
// Resolve invalidates: exactly the changed objects' Step 1–2 state, the
// global Step-3 run (it is cheap and re-runs in full — its load budgets
// couple all mapped objects), and the load contributions of objects whose
// final copies actually moved. Resolve's Result is bit-identical to a
// fresh Solve on the mutated workload, at every Parallelism setting.
// Results returned by a Solver are backed by its record store and are
// invalidated by its next Solve/Resolve call; the one-shot hbn.Solve has
// no such aliasing (its solver is discarded).
//
// Evaluation is allocation-free on the steady path: callers that score
// many placements hold an Evaluator, whose rooted orientation (with its
// O(1) Euler-tour LCA index), difference buffers and Steiner counters
// persist across calls:
//
//	ev := hbn.NewEvaluator(t)
//	rep := &hbn.Report{}
//	for _, p := range candidates {
//	    ev.EvaluateInto(rep, p) // zero allocations once warm
//	    ...
//	}
//
// Each object's load fold touches only its copy and share nodes and their
// ancestors. Evaluator.EvaluateMany scores a batch, EvaluateTracked and
// Reevaluate keep dense per-object load rows so re-scoring after a few
// objects changed costs O(changed·|V|), and the package-level Evaluate
// remains the convenience one-shot entry point.
//
// The online serving layer (NewCluster) is built around batches: Ingest
// partitions each batch onto its owner shards with pooled, reusable
// scratch (steady-state allocation-free) and serves every shard's part
// through OnlineStrategy.ServeBatch, which validates the part and then
// serves it request by request. Nearest-copy resolution and the
// write-broadcast Steiner tree of each copy set are maintained
// incrementally (the connected-subtree structure of Theorem 3.1 makes
// both exact; see internal/dynamic). The bench/ module's ingest-*
// workloads measure this path's events/s. An epoch pass starts on the
// Ingest call that crosses ClusterOptions.EpochRequests and is spread
// over the next few calls, the solver stepping through its stages
// (Solver.Resolve runs the same steps to completion); its placement is
// adopted a fixed number of calls after the crossing, so no call stalls
// for a whole pass and serving stays deterministic. A batch long next to
// the cadence runs its pass whole.
//
// # Elastic topology
//
// Networks change shape while they serve: processors fail, capacity joins,
// bus bandwidth degrades. A TopologyDiff declares such a change
// declaratively — remove nodes (a bus takes its whole subtree), graft new
// processors or bus subtrees, change switch and bus bandwidths — and
// ApplyDiff executes it structurally, returning the new immutable Tree
// plus a TopologyRemap, the dense old→new renumbering every ID-indexed
// structure migrates through. Migrate plans the full state carry-over
// (frequencies remapped, surviving copies kept in place, lost objects
// recovered at the nearest surviving leaf, a fresh near-optimal placement
// solved on the remapped workload), and Cluster.Reconfigure applies all
// of it to a live cluster, safe under concurrent Ingest:
//
//	rs, err := cluster.Reconfigure(hbn.TopologyDiff{
//	    Remove: []hbn.NodeID{failedLeaf},
//	})
//	// rs.Remap translates in-flight request node IDs onto the new tree.
//
// Migration movement is priced through the same AdoptCopySet account as
// epoch adoption (ClusterStats.AdoptMoved), and the epoch solver is
// re-armed on the new tree, so incremental re-solving continues across
// the change. `hbnbench -reconfig` measures reconfigure latency, serving
// throughput during churn, and post-churn congestion against a cold
// restart on the new topology.
//
// Cluster.Reconfigure bounds the ingest stall: it plans the migration
// while ingestion continues, then migrates one shard at a time —
// un-migrated shards keep serving the old tree, migrated shards serve
// the new one through the diff's remap — so the largest single ingest
// stall is one shard's adoption (ReconfigStats.MaxIngestStall measures
// it). The final placement is bit-identical to swapping every shard
// behind one write-gate hold. Degenerate diffs are rejected with typed
// sentinels (ErrRemoveRoot, ErrNoProcessors, ...), and a reconfiguration
// attempted while another is in flight fails fast with
// ErrReconfigInProgress — it never queues. internal/chaos drives
// compound fault scripts (cascading failovers, flapping links, scale-out
// under a write storm) through it and checks the conservation
// invariants.
//
// # Durability
//
// A Cluster checkpoints its entire state — topology, per-object copy
// sets, the observed frequencies, per-shard load accounts and drift
// queues, epoch counters and solver arming — into a single versioned,
// checksummed snapshot file, and a cold process restores it into a warm
// cluster whose subsequent serving is bit-identical to the original's:
//
//	ss, err := cluster.Snapshot("/var/lib/hbn/cluster.hbn")
//	// ss.CutStall is all the ingest path felt: the cut, which encodes
//	// the image in memory; the disk write happened after the gate was
//	// released.
//	...
//	restored, info, err := hbn.Restore("/var/lib/hbn/cluster.hbn",
//	    hbn.RestoreOptions{})
//
// Snapshot takes a consistent cut under the same write gate epochs and
// reconfigurations use, and encodes the image straight from live state
// there, with no copy of the frequency tables: one pass over the objects,
// split into contiguous ranges encoded on the cluster's Parallelism
// workers, reads each table row once, and the immutable tree's encoding
// is computed once per tree. The ingest stall is bounded by that pass,
// not by the disk, and the image's bytes do not depend on the worker
// count. The image stores each fact once (copy lists, not the nearest
// tables rebuilt from them on restore; counts since the last fold, not
// the recorded table twice), and v3 and v2 images still restore. An
// epoch pass in flight at the cut is recorded, not completed, and the
// restored cluster adopts it on the same Ingest call. A cluster holds
// two dense frequency tables, the recorded counts and the solver's aged
// view; each shard's recorder keeps what its objects recorded since
// their last fold sparsely, as the touched cells and their counts at
// first touch (or, for an object that touches most of its row between
// folds, its last-fold row), and decode allocates at most two dense
// tables. The file is
// written crash-consistently: the image goes into a temp file, is
// fsynced and renamed into place, with the previous generation retained.
// Once the cluster has committed an image of its own, the temp file is
// the oldest generation's file, recycled; while such a write is in flight
// the ladder holds one committed generation, the cluster's own last
// image, rather than two. The first snapshot after a restore, which may
// have fallen back past a damaged primary, writes a fresh temp file. A
// crash at any byte still leaves a recoverable state: Restore falls back
// from the primary to the retained generation (RestoreInfo.Fallback) and
// reports typed ErrSnapshotCorrupt / ErrNoSnapshot otherwise, never a
// torn cluster. The crash-point sweep in internal/chaos proves this by
// injecting a crash at every byte offset of the image while ingesters
// run. The repository benchmark (bench/) reports the snapshot call's p50
// on every workload and, in a traced run, its cut, encode and write times
// and the restore time; BenchmarkSnapshot in internal/serve times the
// same split on a warm cluster.
package hbn

import (
	"math/rand"

	"hbn/internal/baseline"
	"hbn/internal/core"
	"hbn/internal/dist"
	"hbn/internal/dynamic"
	"hbn/internal/placement"
	"hbn/internal/ratio"
	"hbn/internal/ring"
	"hbn/internal/serve"
	"hbn/internal/snapshot"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Re-exported core types. The aliases make the full method sets of the
// internal packages available through the public API.
type (
	// Tree is an immutable weighted tree; leaves are processors, inner
	// nodes are buses.
	Tree = tree.Tree
	// NetworkBuilder constructs Trees.
	NetworkBuilder = tree.Builder
	// NodeID identifies a tree node.
	NodeID = tree.NodeID
	// EdgeID identifies a tree edge (a switch).
	EdgeID = tree.EdgeID
	// Workload holds per-(object, processor) read/write frequencies.
	Workload = workload.W
	// Access is one (reads, writes) frequency pair.
	Access = workload.Access
	// Placement assigns object copies to nodes together with the demand
	// they serve.
	Placement = placement.P
	// Report holds exact per-edge/per-bus loads and the congestion of a
	// placement.
	Report = placement.Report
	// Congestion is an exact non-negative rational (load/bandwidth).
	Congestion = ratio.R
	// Result carries the extended-nibble output and all intermediate
	// products.
	Result = core.Result
	// Options tunes the solver (ablations, mapping root, invariant
	// checking).
	Options = core.Options
	// Solver is the reusable solver with incremental Resolve; see the
	// package comment's Performance section.
	Solver = core.Solver
	// RingNetwork is a concrete SCI-style hierarchical ring network
	// (Figure 1 of the paper).
	RingNetwork = ring.Network
	// OnlineStrategy is the dynamic (online) extension for workloads with
	// unknown frequencies.
	OnlineStrategy = dynamic.Strategy
	// Evaluator scores placements with reusable scratch state; see the
	// package comment's Performance section.
	Evaluator = placement.Evaluator
	// TraceEvent is one online access of a request trace (the event type
	// the workload scenario generators emit and Cluster.Ingest consumes).
	TraceEvent = workload.TraceEvent
	// Cluster is the sharded concurrent online serving layer with epoch
	// re-solve; see NewCluster.
	Cluster = serve.Cluster
	// ClusterOptions tune a Cluster (shards, epoch length, threshold,
	// drift trigger). Every epoch pass halves the solver's history of each
	// drifted object once; there is no option for it.
	ClusterOptions = serve.Options
	// ClusterStats summarize a Cluster's served traffic and epoch passes.
	ClusterStats = serve.Stats
	// EpochStat records one epoch re-solve pass of a Cluster.
	EpochStat = serve.EpochStat
	// TopologyDiff declares mutations to a live network: node removals,
	// grafted subtrees, bandwidth changes.
	TopologyDiff = topo.Diff
	// Graft describes one node a TopologyDiff adds.
	Graft = topo.Graft
	// SwitchBandwidth / BusBandwidth are bandwidth changes in a
	// TopologyDiff.
	SwitchBandwidth = topo.SwitchBandwidth
	BusBandwidth    = topo.BusBandwidth
	// TopologyRemap is the dense old→new ID translation a diff induces.
	TopologyRemap = topo.Remap
	// Migration is the state-carrying plan Migrate produces for a diff.
	Migration = topo.Migration
	// ReconfigStats summarizes one Cluster.Reconfigure call.
	ReconfigStats = serve.ReconfigStats
	// SnapshotStats summarizes one Cluster.Snapshot call (image size, cut
	// stall, encode and write times).
	SnapshotStats = serve.SnapshotStats
	// RestoreOptions choose the runtime shape (parallelism) of a restored
	// Cluster.
	RestoreOptions = serve.RestoreOptions
	// RestoreInfo reports which snapshot generation a Restore recovered.
	RestoreInfo = serve.RestoreInfo
)

// None is the sentinel "no node" value.
const None = tree.None

// Typed reconfiguration errors, matched with errors.Is through the
// wrapped errors Reconfigure / ApplyDiff return.
var (
	// ErrReconfigInProgress: another reconfiguration already holds the
	// cluster's flag; the attempt failed fast and nothing was queued.
	ErrReconfigInProgress = serve.ErrReconfigInProgress
	// TopologyDiff validation sentinels (degenerate diffs).
	ErrRemoveRoot        = topo.ErrRemoveRoot
	ErrRemoveRange       = topo.ErrRemoveRange
	ErrOverlappingRemove = topo.ErrOverlappingRemove
	ErrNoProcessors      = topo.ErrNoProcessors
	ErrBadGraft          = topo.ErrBadGraft
	ErrBadBandwidth      = topo.ErrBadBandwidth
	// ErrClusterClosed: the operation raced with or followed Cluster.Close.
	ErrClusterClosed = serve.ErrClosed
	// ErrBadClusterOptions: NewCluster rejected an out-of-range
	// ClusterOptions value (Threshold < 1, negative cadences or budgets, a
	// NaN or negative drift threshold, or a drift trigger with no check
	// cadence).
	ErrBadClusterOptions = serve.ErrBadOptions
	// ErrBadOnlineOptions: NewOnline rejected its options (threshold < 1).
	ErrBadOnlineOptions = dynamic.ErrBadOptions
	// ErrSnapshotCorrupt: the snapshot image failed its structural or
	// checksum validation (truncated, bit-flipped, torn, or hostile).
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrNoSnapshot: neither the primary nor the retained generation
	// exists at the given path.
	ErrNoSnapshot = snapshot.ErrNoSnapshot
)

// Kind distinguishes processors (leaves) from buses (inner nodes), for
// declaring grafted nodes in a TopologyDiff.
type Kind = tree.Kind

// Node kinds.
const (
	Processor = tree.Processor
	Bus       = tree.Bus
)

// NewNetworkBuilder returns an empty network builder.
func NewNetworkBuilder() *NetworkBuilder { return tree.NewBuilder() }

// NewWorkload returns an all-zero workload for numObjects objects over
// numNodes tree nodes.
func NewWorkload(numObjects, numNodes int) *Workload { return workload.New(numObjects, numNodes) }

// Solve runs the extended-nibble strategy (Sections 3–4 of the paper) with
// default options and returns the leaf-only placement, its exact loads,
// and a certified lower bound on the optimal congestion.
func Solve(t *Tree, w *Workload) (*Result, error) {
	return core.Solve(t, w, core.DefaultOptions())
}

// SolveWithOptions is Solve with explicit options (ablations, invariant
// checking, mapping root).
func SolveWithOptions(t *Tree, w *Workload, opts Options) (*Result, error) {
	return core.Solve(t, w, opts)
}

// NewSolver returns a reusable solver for t with default options — the
// steady path for serving workloads that solve repeatedly or drift
// incrementally (Solver.Resolve). See the package comment's Performance
// section for the caching and result-ownership contract.
func NewSolver(t *Tree) (*Solver, error) {
	return core.NewSolver(t, core.DefaultOptions())
}

// NewSolverWithOptions is NewSolver with explicit options.
func NewSolverWithOptions(t *Tree, opts Options) (*Solver, error) {
	return core.NewSolver(t, opts)
}

// Evaluate computes the exact loads and congestion a placement induces
// under the paper's cost model (Section 1.1).
func Evaluate(t *Tree, p *Placement) *Report { return placement.Evaluate(t, p) }

// NewEvaluator returns a reusable evaluator for t — the allocation-free
// fast path for scoring many placements on one network.
func NewEvaluator(t *Tree) *Evaluator { return placement.NewEvaluator(t) }

// EvaluateParallel is Evaluate sharding the per-object load accumulation
// over workers (<= 0 means GOMAXPROCS); the result is bit-identical to
// Evaluate.
func EvaluateParallel(t *Tree, p *Placement, workers int) *Report {
	return placement.EvaluateParallel(t, p, workers)
}

// SolveDistributed computes the Step-1 nibble placement by running the
// tree network itself: every node exchanges messages with its neighbors in
// synchronous rounds (Section 3.1's distributed computation). It returns
// the round/message statistics alongside.
func SolveDistributed(t *Tree, w *Workload, maxRounds int) (*Result, *dist.Stats, error) {
	nib, st, err := dist.NibblePlacement(t, w, maxRounds)
	if err != nil {
		return nil, st, err
	}
	res, err := core.SolveFromNibble(t, w, nib, core.DefaultOptions())
	if err != nil {
		return nil, st, err
	}
	return res, st, nil
}

// Baseline computes one of the comparison strategies: "single-home",
// "full-replication", "random" or "greedy".
func Baseline(name string, seed int64, t *Tree, w *Workload) (*Placement, error) {
	return baseline.ByName(name, rand.New(rand.NewSource(seed)), t, w)
}

// BaselineNames lists the available baselines.
func BaselineNames() []string { return baseline.Names() }

// NewOnline creates the dynamic (online) strategy with the given
// replication threshold (1 = replicate eagerly). A threshold below 1 is
// rejected with an error satisfying errors.Is(err, ErrBadOnlineOptions).
func NewOnline(t *Tree, numObjects, threshold int) (*OnlineStrategy, error) {
	return dynamic.New(t, numObjects, dynamic.Options{Threshold: threshold})
}

// NewOnlineBandwidthAware is NewOnline with per-edge replication budgets
// scaled by edge bandwidth: edge e replicates after max(1,
// threshold·bw(e)/maxBw) reads instead of a flat threshold, so cheap
// low-bandwidth links — whose crossings dominate congestion — replicate
// sooner. With uniform bandwidths it serves bit-identically to NewOnline.
func NewOnlineBandwidthAware(t *Tree, numObjects, threshold int) (*OnlineStrategy, error) {
	return dynamic.New(t, numObjects, dynamic.Options{Threshold: threshold, BandwidthAware: true})
}

// NewCluster creates the concurrent online serving layer: requests ingest
// in batches, shard by object onto parallel online strategies, and every
// ClusterOptions.EpochRequests served requests the observed frequencies
// of the drifted objects feed a shared incremental Solver whose fresh
// static placement each shard adopts as its warm state. With Shards: 1
// and EpochRequests: 0 a Cluster serves exactly like NewOnline.
func NewCluster(t *Tree, numObjects int, opts ClusterOptions) (*Cluster, error) {
	return serve.NewCluster(t, numObjects, opts)
}

// Restore recovers a Cluster from a snapshot written by Cluster.Snapshot,
// falling back to the retained previous generation when the primary is
// damaged or missing (see the package comment's Durability section). The
// restored cluster serves bit-identically to the one that was
// snapshotted; opts choose its runtime shape only.
func Restore(path string, opts RestoreOptions) (*Cluster, *RestoreInfo, error) {
	return serve.Restore(path, opts)
}

// ApplyDiff executes a topology diff against t: removals (whole subtrees
// in the canonical node-0 orientation), grafts, bandwidth changes, and
// the pruning of degenerate buses. It returns the new tree and the dense
// old→new ID remap; t is never mutated, and an identity diff round-trips
// the tree bit-identically.
func ApplyDiff(t *Tree, d TopologyDiff) (*Tree, *TopologyRemap, error) {
	return topo.Apply(t, d)
}

// Migrate plans the state carry-over for applying d to t: the remapped
// workload, each object's copy set projected onto the surviving nodes
// (copies that survive do not move), recovery placements for objects
// whose copies were all lost, and the re-solved target placement on the
// new tree, with an armed Solver for incremental re-solving from there.
// Cluster.Reconfigure is the live-serving form of this.
func Migrate(t *Tree, d TopologyDiff, w *Workload, copySets [][]NodeID) (*Migration, error) {
	return topo.Migrate(t, d, w, copySets, topo.Options{})
}

// Generators for common network shapes (all valid hierarchical bus
// networks).
var (
	// Star returns one bus with n processors.
	Star = tree.Star
	// BalancedKAry returns a balanced k-ary bus hierarchy.
	BalancedKAry = tree.BalancedKAry
	// SCICluster returns the Figure-1/2 shape: a top ring over leaf rings.
	SCICluster = tree.SCICluster
	// Caterpillar returns a deep chain of buses.
	Caterpillar = tree.Caterpillar
)

// Figure1 builds the paper's Figure-1 ring-of-rings network; call
// (*RingNetwork).BusTree for the Figure-2 transformation.
var Figure1 = ring.Figure1
