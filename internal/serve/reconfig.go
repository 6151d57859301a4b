package serve

import (
	"errors"
	"fmt"
	"time"

	"hbn/internal/dynamic"
	"hbn/internal/obs"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// ErrReconfigInProgress reports that a Reconfigure call is already in
// flight. Reconfigurations never queue: a call holds the epoch lock for
// its whole (potentially long) duration, and silently serializing a
// second topology change behind it would stack diffs whose IDs refer to
// a tree that no longer exists by the time the second one runs. Callers
// retry after the first call returns, diffing against the then-current
// tree.
var ErrReconfigInProgress = errors.New("serve: reconfiguration already in progress")

// ReconfigStats summarizes one completed Reconfigure call.
type ReconfigStats struct {
	// Elapsed is the wall time of the whole reconfiguration.
	Elapsed time.Duration
	// PlanElapsed is the planning portion (diff application, migration
	// solve, projection tables), which runs while ingestion continues.
	PlanElapsed time.Duration
	// MaxIngestStall bounds the longest single window during which any
	// Ingest call could have been blocked by this reconfiguration: the
	// maximum over the two quiesce windows (publish and commit) and each
	// individual shard's migration.
	MaxIngestStall time.Duration
	// RemovedNodes / AddedNodes count the node difference (removals
	// include pruned degenerate buses).
	RemovedNodes, AddedNodes int
	// Projected counts objects that kept at least one surviving copy;
	// Recovered counts objects whose copies were all lost and were
	// restored at the nearest surviving leaf.
	Projected, Recovered int
	// Moved is the adoption-priced migration distance: each re-solved copy
	// charged its tree distance to the object's nearest surviving copy.
	Moved int64
	// DroppedLoad is the aggregate edge load that sat on removed edges and
	// left with the hardware; DroppedServiceLoad is its service-only part.
	// These close the conservation ledger across topology changes: summed
	// service load after a reconfigure equals the sum before it minus
	// DroppedServiceLoad, so Σ ServiceLoad(final) + Σ DroppedServiceLoad
	// over all reconfigures equals the total cost Ingest returned.
	DroppedLoad, DroppedServiceLoad int64
	// Remap translates old IDs onto the new topology, so callers can
	// project in-flight traces, external load tables, or monitoring state
	// the same way the cluster did.
	Remap *topo.Remap
}

// Reconfigure applies a topology diff to the live cluster: the network is
// rebuilt through topo.Apply, and every layer of serving state migrates
// across the ID remap — observed frequencies (the recorded table and the
// solver's aged view), per-shard edge-load and request accounting
// (surviving edges keep their history; removed edges' loads are dropped
// with the hardware), and every object's copy set. Copies on surviving
// nodes stay exactly where they are (minimal movement); objects whose
// copies were all lost are restored at the surviving leaf nearest to the
// lost set; then one epoch-style pass adopts the placement freshly solved
// on the remapped frequencies, pricing the migration through the same
// AdoptCopySet movement account as every epoch pass (Stats.AdoptMoved).
// The epoch solver is re-armed on the new tree, so subsequent passes
// continue incrementally with Resolve.
//
// The swap is staged (rolling): ingestion is never blocked for longer
// than one shard's migration, plus two brief quiesce windows that publish
// and commit the roll — the measured bound comes back in
// ReconfigStats.MaxIngestStall. The cluster double-buffers the topology
// for the duration: planning (diff, migration solve, projection tables)
// runs with ingestion at full speed; then the roll state is published
// under a quiesce and shards migrate onto the new tree one at a time,
// each under only its own lock. Ingest keeps accepting OLD node IDs
// throughout — batches landing on not-yet-migrated shards serve against
// the old tree as if nothing were happening, while migrated shards
// translate each request across the remap, redirecting traffic addressed
// to removed processors to their nearest surviving leaf
// (Migration.LeafFallback) so every request is served and conserved
// mid-swap. On a quiesced cluster the end state is bit-identical to
// swapping every shard behind one gate hold.
//
// A final quiesce commits the new tree as the cluster's addressing space;
// requests ingested after Reconfigure returns must use NEW node IDs —
// translate in-flight traffic through the returned ReconfigStats.Remap.
// The renumbering is dense, so the cluster can only reject stale IDs that
// fall outside the new tree or on a bus; an untranslated old ID that
// happens to alias a surviving processor is indistinguishable from a
// genuine request for it and is served as such. ID translation is the
// caller's responsibility, exactly as with any resharding.
//
// Mid-roll, load accessors (EdgeLoad, ServiceLoad, MaxEdgeLoad,
// TotalLoad) report in the NEW tree's edge space — un-migrated shards'
// loads are projected forward through the remap, with loads on doomed
// edges omitted exactly as they will be dropped at migration — and Tree
// returns the new tree, so (Tree, EdgeLoad) stay mutually consistent at
// every instant. Copies reports per-shard state and may mix old- and
// new-tree IDs while the roll is in flight.
//
// Epoch passes pause for the duration (the call holds the epoch lock and
// epoch-crossing Ingest calls skip the inline pass while one is in
// flight); drift recorded mid-roll is carried across the rebuild and
// picked up by the next pass. A concurrent Reconfigure fails fast with
// ErrReconfigInProgress — never queues, never deadlocks.
func (c *Cluster) Reconfigure(d topo.Diff) (ReconfigStats, error) {
	var rs ReconfigStats
	if !c.reconfiguring.CompareAndSwap(false, true) {
		return rs, ErrReconfigInProgress
	}
	defer c.reconfiguring.Store(false)
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if c.closed.Load() {
		return rs, ErrClosed
	}
	// An epoch pass in flight is adopted first, on the old tree it was
	// solved for.
	if err := c.finishPassLocked(); err != nil {
		return rs, err
	}
	start := time.Now()

	// Plan with ingestion running: the drift fold and migration solve see
	// a consistent snapshot (tracker rows are read under shard locks), and
	// anything recorded after it is either carried across the rebuild or
	// folded by a later epoch pass.
	oldTree := c.t
	mig, changed, err := c.planLocked(d)
	if err != nil {
		return rs, err
	}
	rs.PlanElapsed = time.Since(start)
	rs.fillPlan(c, mig)

	// The commit work that would otherwise sit inside the final quiesce
	// window is precomputed here, outside any gate: c.isLeaf is only ever
	// written under epochMu, which we hold. The new tree's frequency table
	// is allocated here too; each shard's swap fills in its own rows.
	isLeaf := newIsLeaf(mig.Tree)
	freq := workload.New(c.numObjects, mig.Tree.Len())

	// Publish the roll. From here every gated reader sees the
	// double-buffered state: partition stops aliasing caller batches,
	// migrated shards translate IDs, load accessors project forward.
	roll := &rollState{newTree: mig.Tree, remap: mig.Remap, fallback: mig.LeafFallback}
	var maxStall time.Duration
	// Every window during which ingestion could stall — the publish
	// quiesce, each shard's swap, the commit quiesce — is one histogram
	// observation and one flight-recorder phase event, so a p99 spike
	// during a roll is attributable to the exact shard that caused it.
	stall := func(t0 time.Time, phase int64, shard int32) {
		d := time.Since(t0)
		if d > maxStall {
			maxStall = d
		}
		if o := c.obs; o != nil {
			o.ReconfigStall.Observe(int64(d))
			o.Flight.Record(obs.EvReconfig, shard, phase, int64(d), 0)
		}
	}
	t0 := time.Now()
	c.quiesce(func() { c.roll = roll })
	stall(t0, obs.PhaseBegin, -1)

	// Migrate one shard at a time, each under only its own lock: a
	// concurrent Ingest stalls only if it owns requests for the shard
	// being swapped, and only for that shard's rebuild. The projector
	// projects each object's LIVE copy set at its shard's swap instant —
	// threshold dynamics that ran since the plan snapshot migrate as they
	// are, never rolled back to the snapshot (on a quiesced cluster the
	// live sets ARE the snapshot).
	proj := topo.NewProjector(oldTree, mig.Tree, mig.Remap)
	for si, sh := range c.shards {
		t0 = time.Now()
		sh.mu.Lock()
		c.migrateShard(sh, si, mig, proj, freq, &rs)
		sh.onNew = true
		sh.mu.Unlock()
		stall(t0, obs.PhaseShard, int32(si))
		if c.rollHook != nil {
			c.rollHook(si + 1)
		}
	}

	// Commit: the new tree becomes the cluster's addressing space and the
	// roll state disappears. onNew is cleared under the full gate (not
	// shard locks): gated readers synchronize via the gate itself.
	t0 = time.Now()
	c.quiesce(func() {
		c.installEpochState(mig, freq, isLeaf)
		c.roll = nil
		for _, sh := range c.shards {
			sh.onNew = false
		}
	})
	stall(t0, obs.PhaseCommit, -1)

	rs.Elapsed = time.Since(start)
	rs.MaxIngestStall = maxStall
	c.finishReconfigLocked(&rs, changed, mig.Congestion)
	return rs, nil
}

// planLocked folds outstanding drift, snapshots every object's live copy
// set, and plans the migration (caller holds epochMu). On a failed plan
// nothing has been swapped and the cluster keeps serving on the old
// topology — but the drift fold already mutated solver workload rows
// whose changed list is dropped here, and the solver's incremental
// contract forbids Resolve over mutated rows it was not told about; the
// solver is disarmed so the next epoch pass runs a full Solve, which is
// always valid.
func (c *Cluster) planLocked(d topo.Diff) (mig *topo.Migration, drifted int, err error) {
	changed, _ := c.collectDriftLocked()
	sets := make([][]tree.NodeID, c.numObjects)
	for si, sh := range c.shards {
		sh.mu.Lock()
		for x := si; x < c.numObjects; x += len(c.shards) {
			sets[x] = sh.strat.Copies(x)
		}
		sh.mu.Unlock()
	}
	mig, err = topo.Migrate(c.t, d, c.w, sets, topo.Options{Parallelism: c.opts.Parallelism})
	if err != nil {
		c.solved = false
		return nil, 0, fmt.Errorf("serve: reconfigure: %w", err)
	}
	return mig, len(changed), nil
}

// fillPlan copies the plan-derived counters into the stats.
func (rs *ReconfigStats) fillPlan(c *Cluster, mig *topo.Migration) {
	rs.Remap = mig.Remap
	added := countAdded(mig.Remap)
	rs.RemovedNodes = c.t.Len() - len(mig.Remap.NodeBack) + added
	rs.AddedNodes = added
}

// installEpochState swaps the epoch machinery and the frequency table
// onto the migration's tree (caller holds epochMu and the full ingest
// gate: Reconfigure runs it inside the commit quiesce).
func (c *Cluster) installEpochState(mig *topo.Migration, freq *workload.W, isLeaf []bool) {
	c.t = mig.Tree
	c.solver = mig.Solver
	c.freq = freq
	c.w = mig.W
	c.solved = true
	c.isLeaf = isLeaf
}

func newIsLeaf(t *tree.Tree) []bool {
	isLeaf := make([]bool, t.Len())
	for _, v := range t.Leaves() {
		isLeaf[v] = true
	}
	return isLeaf
}

// migrateShard rebuilds one shard on the migration's tree (caller holds
// sh.mu and epochMu): a fresh strategy with the old load history and
// request counts, and a tracker over freq, the new tree's table, with the
// shard's frequency rows, its cells touched since their last fold and its
// un-drained drift flags carried across the remap (a removed leaf's cells
// leave with its counts). Only the shard's own rows of freq are written,
// under sh.mu, and only its own rows of the old table are read: shards
// not yet migrated keep recording into the old table. Then comes the
// two-phase adoption —
// the projected live copy set first (first-touch, free: the data is
// physically there), the re-solved target second (priced movement from
// the survivors).
// Loads on removed edges are dropped with the hardware and accounted in
// rs.DroppedLoad / rs.DroppedServiceLoad.
func (c *Cluster) migrateShard(sh *shard, si int, mig *topo.Migration, proj *topo.Projector, freq *workload.W, rs *ReconfigStats) {
	edgeLoad := sh.strat.EdgeLoad
	moveLoad := sh.strat.MoveLoad()
	var dl, dc int64
	for e, l := range edgeLoad {
		if mig.Remap.Edge[e] == tree.NoEdge {
			dl += l
			dc += l - moveLoad[e]
		}
	}
	rs.DroppedLoad += dl
	rs.DroppedServiceLoad += dc
	if b := sh.obsb; b != nil {
		// Same critical section as the drop itself, so the obs drop
		// counters and the conservation ledger move together.
		b.Add(obs.SlotDroppedLoad, dl)
		b.Add(obs.SlotDroppedCost, dc)
	}
	// The options were validated at NewCluster, so MustNew cannot panic.
	ns := dynamic.MustNew(mig.Tree, c.numObjects, c.dynOpts())
	ns.ImportLoads(
		mig.Remap.EdgeLoads(edgeLoad),
		mig.Remap.EdgeLoads(moveLoad),
		sh.strat.Requests(),
	)
	ns.ImportOps(sh.strat.Ops())
	old := sh.tracker.Workload()
	nt := dynamic.NewOfflineTrackerWith(mig.Tree, freq, sh.tracker.Since().Remap(mig.Tree.Len(), mig.Remap.Node))
	nt.MarkDrifted(sh.tracker.Drifted())
	for x := si; x < c.numObjects; x += len(c.shards) {
		mig.Remap.Row(freq.Row(x), old.Row(x))
		p, recovered := proj.Project(sh.strat.Copies(x))
		if len(p) > 0 {
			ns.AdoptCopySet(x, p)
			if recovered {
				rs.Recovered++
			} else {
				rs.Projected++
			}
		}
		if t := mig.Targets[x]; len(t) > 0 {
			rs.Moved += ns.AdoptCopySet(x, t)
		}
	}
	sh.strat = ns
	sh.tracker = nt
}

// finishReconfigLocked books the completed reconfiguration into the
// cluster stats and epoch log (caller holds epochMu; every shard is on
// the new tree).
func (c *Cluster) finishReconfigLocked(rs *ReconfigStats, drifted int, congestion float64) {
	c.stats.Epochs++
	c.stats.Reconfigs++
	c.stats.Drifted += int64(drifted)
	c.stats.AdoptMoved += rs.Moved
	c.stats.ResolveTime += rs.Elapsed
	c.stats.DroppedLoad += rs.DroppedLoad
	c.stats.DroppedServiceLoad += rs.DroppedServiceLoad
	c.epochLog = append(c.epochLog, EpochStat{
		Epoch:            c.stats.Epochs,
		Requests:         c.served.Load(),
		Drifted:          drifted,
		Moved:            rs.Moved,
		StaticCongestion: congestion,
		MaxEdgeLoad:      c.maxEdgeLoadLocked(),
		ResolveNs:        rs.Elapsed.Nanoseconds(),
		Trigger:          TriggerManual,
	})
	if o := c.obs; o != nil {
		// A reconfiguration is an epoch-like pass: observing it here keeps
		// the epoch histogram's count equal to Stats.Epochs, and every
		// epoch-log entry paired with one EvEpoch flight event.
		o.EpochPass.Observe(rs.Elapsed.Nanoseconds())
		o.Flight.Record(obs.EvEpoch, -1, triggerCode(TriggerManual), int64(drifted), rs.Moved)
		o.Flight.Record(obs.EvReconfig, -1, obs.PhaseCommit,
			int64(rs.MaxIngestStall), rs.DroppedServiceLoad)
	}
}

// countAdded counts remap entries for freshly grafted (surviving) nodes.
func countAdded(m *topo.Remap) int {
	n := 0
	for _, v := range m.NodeBack {
		if v == tree.None {
			n++
		}
	}
	return n
}
