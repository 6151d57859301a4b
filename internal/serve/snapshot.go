package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"hbn/internal/dynamic"
	"hbn/internal/obs"
	"hbn/internal/snapshot"
	"hbn/internal/workload"
)

// SnapshotStats summarizes one completed (or crashed) Snapshot call.
type SnapshotStats struct {
	// Seq is the snapshot's sequence number — monotone per cluster, so the
	// crash harness can assert which generation a recovery landed on.
	Seq uint64
	// Bytes is the encoded image size. It is filled in before the disk
	// write starts, so a crashed attempt still reports how large the image
	// would have been.
	Bytes int64
	// Elapsed is the wall time of the whole call; CutStall is the portion
	// spent holding the ingest gate (the consistent cut — the only window
	// during which concurrent Ingest calls can stall); EncodeElapsed and
	// WriteElapsed happen after the gate is released, so disk speed never
	// bounds the serving stall.
	Elapsed       time.Duration
	CutStall      time.Duration
	EncodeElapsed time.Duration
	WriteElapsed  time.Duration
}

// RestoreOptions tune the cluster a Restore builds. Everything that
// affects serving decisions travels inside the snapshot; only the
// scheduling knob — which never changes results — is chosen here.
type RestoreOptions struct {
	// Parallelism bounds batch-serving and solver workers (as in Options).
	Parallelism int
}

// RestoreInfo reports which generation a Restore recovered.
type RestoreInfo struct {
	// Path is the file the state came from; Fallback is true when it was
	// the previous generation (the primary was missing or damaged).
	Path     string
	Fallback bool
	// Seq is the recovered snapshot's sequence number.
	Seq uint64
}

// Snapshot writes a crash-consistent snapshot of the full cluster state
// to path (see package snapshot for the file format and durability
// protocol; the previous generation is retained at path+".prev").
//
// The consistent cut is taken under the ingest gate — the same quiesce
// barrier reconfiguration commits use — so concurrent Ingest calls stall
// only for the in-memory capture, never for encoding or the disk write;
// the measured windows come back in SnapshotStats. Snapshot serializes
// with topology changes through the same flag as Reconfigure: a call
// while a reconfiguration (or another snapshot) is in flight fails fast
// with ErrReconfigInProgress, because mid-roll the shards straddle two ID
// spaces and no consistent single-tree image exists. A closed cluster can
// still be snapshotted (its state is frozen — the natural last step of a
// shutdown-for-handoff).
func (c *Cluster) Snapshot(path string) (SnapshotStats, error) {
	return c.SnapshotWith(path, snapshot.SaveOptions{})
}

// SnapshotWith is Snapshot with explicit save options — the seam the
// fault-injection harness uses to crash the write at a chosen byte.
// On an injected crash the returned stats are still meaningful (Seq,
// Bytes, CutStall): the cut happened, the commit did not.
func (c *Cluster) SnapshotWith(path string, opts snapshot.SaveOptions) (SnapshotStats, error) {
	var ss SnapshotStats
	if !c.reconfiguring.CompareAndSwap(false, true) {
		return ss, ErrReconfigInProgress
	}
	defer c.reconfiguring.Store(false)
	start := time.Now()

	c.epochMu.Lock()
	// The sequence number advances per attempt, committed or not: a torn
	// generation must never be confused with the one it failed to replace.
	c.snapSeq++
	var st *snapshot.State
	t0 := time.Now()
	c.quiesce(func() { st = c.captureLocked() })
	ss.CutStall = time.Since(t0)
	c.epochMu.Unlock()
	ss.Seq = st.Seq

	t0 = time.Now()
	data := snapshot.Encode(st)
	ss.EncodeElapsed = time.Since(t0)
	ss.Bytes = int64(len(data))

	t0 = time.Now()
	err := snapshot.WriteFile(path, data, opts)
	ss.WriteElapsed = time.Since(t0)
	ss.Elapsed = time.Since(start)
	if o := c.obs; o != nil {
		o.SnapshotCut.Observe(ss.CutStall.Nanoseconds())
		o.Flight.Record(obs.EvSnapshot, -1, int64(ss.Seq), ss.Bytes, ss.CutStall.Nanoseconds())
	}
	return ss, err
}

// captureLocked copies every piece of serving state into a State (caller
// holds epochMu and the full ingest gate, and excludes reconfigurations,
// so the shard locks below are uncontended formality). Everything shared
// is cloned: the State owns its memory and stays valid after the gate
// lifts.
func (c *Cluster) captureLocked() *snapshot.State {
	st := &snapshot.State{
		Seq:        c.snapSeq,
		Tree:       c.t,
		NumObjects: c.numObjects,

		EpochRequests:      c.opts.EpochRequests,
		Threshold:          c.opts.Threshold,
		DecayShift:         uint32(c.opts.DecayShift),
		BandwidthAware:     c.opts.BandwidthAware,
		WriteBudget:        c.opts.WriteBudget,
		DriftThreshold:     c.opts.DriftThreshold,
		DriftCheckRequests: c.opts.DriftCheckRequests,

		Solved:             c.solved,
		Served:             c.served.Load(),
		Epochs:             c.stats.Epochs,
		DriftEpochs:        c.stats.DriftEpochs,
		Reconfigs:          c.stats.Reconfigs,
		DriftedTotal:       c.stats.Drifted,
		AdoptMoved:         c.stats.AdoptMoved,
		ResolveTimeNs:      c.stats.ResolveTime.Nanoseconds(),
		DroppedLoad:        c.stats.DroppedLoad,
		DroppedServiceLoad: c.stats.DroppedServiceLoad,
		SolverW:            c.w.Clone(),
		PrevW:              c.prev.Clone(),

		ShardStates: make([]snapshot.ShardState, len(c.shards)),
		Objects:     make([]dynamic.ObjectState, c.numObjects),
	}
	st.EpochLog = make([]snapshot.EpochRec, len(c.epochLog))
	for i, e := range c.epochLog {
		st.EpochLog[i] = snapshot.EpochRec{
			Epoch:            e.Epoch,
			Requests:         e.Requests,
			Drifted:          e.Drifted,
			Moved:            e.Moved,
			StaticCongestion: e.StaticCongestion,
			MaxEdgeLoad:      e.MaxEdgeLoad,
			ResolveNs:        e.ResolveNs,
			Trigger:          e.Trigger,
			DriftMagnitude:   e.DriftMagnitude,
		}
	}
	for si, sh := range c.shards {
		sh.mu.Lock()
		ml := sh.strat.MoveLoad() // freshly allocated per call
		el := make([]int64, len(sh.strat.EdgeLoad))
		copy(el, sh.strat.EdgeLoad)
		st.ShardStates[si] = snapshot.ShardState{
			EdgeLoad: el,
			MoveLoad: ml,
			Requests: sh.strat.Requests(),
			Cost:     sh.cost,
			TrackerW: sh.tracker.Workload().Clone(),
			Drift:    sh.tracker.Drifted(),
		}
		for x := si; x < c.numObjects; x += len(c.shards) {
			st.Objects[x] = sh.strat.ExportObject(x)
		}
		sh.mu.Unlock()
	}
	return st
}

// Restore recovers a warm cluster from the snapshot at path, walking the
// generation ladder: the primary file first, then the retained previous
// generation. A generation is skipped if it fails integrity verification
// (checksum/length) or semantic validation (RestoreState); when neither
// file exists the error wraps snapshot.ErrNoSnapshot, and when at least
// one exists but none is usable it wraps snapshot.ErrCorrupt — the
// caller's signal to fall back to a cold NewCluster + Solve. Restore
// never panics on damaged input.
//
// The restored cluster's subsequent serving behavior is bit-identical to
// the source cluster's from the cut onward (see RestoreState).
func Restore(path string, opts RestoreOptions) (*Cluster, *RestoreInfo, error) {
	var errs []error
	missing := 0
	for _, p := range []string{path, snapshot.PrevPath(path)} {
		st, err := snapshot.ReadFile(p)
		if err == nil {
			var c *Cluster
			if c, err = RestoreState(st, opts); err == nil {
				if o := c.obs; o != nil {
					fb := int64(0)
					if p != path {
						fb = 1
					}
					o.Flight.Record(obs.EvRecovery, -1, int64(st.Seq), fb, 0)
				}
				return c, &RestoreInfo{Path: p, Fallback: p != path, Seq: st.Seq}, nil
			}
			err = fmt.Errorf("%s: %w", p, err)
		} else if errors.Is(err, fs.ErrNotExist) {
			missing++
		}
		errs = append(errs, err)
	}
	if missing == 2 {
		return nil, nil, fmt.Errorf("%w at %s", snapshot.ErrNoSnapshot, path)
	}
	return nil, nil, fmt.Errorf("%w: no usable generation (%v; %v)", snapshot.ErrCorrupt, errs[0], errs[1])
}

// RestoreState rebuilds a warm cluster from a decoded snapshot state. It
// takes ownership of st's slices and workloads — a State must not be
// reused after a successful call. Semantic validation beyond the codec's
// (dimension agreement, per-object invariants) fails with an error
// wrapping snapshot.ErrCorrupt.
//
// Bit-identity: the restored cluster reproduces the source's serving
// decisions exactly from the cut onward. Copy sets, nearest tables and
// live read counters are restored verbatim (see dynamic.RestoreObject);
// write-broadcast edge sets are rebuilt (pure function of the copy set);
// the solver is re-armed with a full Solve over the restored frequency
// view, which by the Resolve ≡ fresh-Solve contract yields the same
// future epoch placements the source would have produced. Parallelism
// may differ from the source: every parallel stage of serving and of the
// epoch pass is bit-identical to its sequential order (the property
// TestEpochPassParallelBitIdentical pins).
func RestoreState(st *snapshot.State, opts RestoreOptions) (*Cluster, error) {
	nshards := len(st.ShardStates)
	if nshards == 0 {
		return nil, fmt.Errorf("%w: no shard states", snapshot.ErrCorrupt)
	}
	if len(st.Objects) != st.NumObjects {
		return nil, fmt.Errorf("%w: %d object states for %d objects", snapshot.ErrCorrupt, len(st.Objects), st.NumObjects)
	}
	nodes, edges := st.Tree.Len(), st.Tree.NumEdges()
	if err := checkDims(st.SolverW, st.NumObjects, nodes, "solver workload"); err != nil {
		return nil, err
	}
	if err := checkDims(st.PrevW, st.NumObjects, nodes, "previous-fold workload"); err != nil {
		return nil, err
	}
	for si := range st.ShardStates {
		ss := &st.ShardStates[si]
		if len(ss.EdgeLoad) != edges || len(ss.MoveLoad) != edges {
			return nil, fmt.Errorf("%w: shard %d: %d/%d load entries for %d edges", snapshot.ErrCorrupt, si, len(ss.EdgeLoad), len(ss.MoveLoad), edges)
		}
		if err := checkDims(ss.TrackerW, st.NumObjects, nodes, fmt.Sprintf("shard %d tracker workload", si)); err != nil {
			return nil, err
		}
		if ss.Requests < 0 || ss.Cost < 0 {
			return nil, fmt.Errorf("%w: shard %d: negative accounting", snapshot.ErrCorrupt, si)
		}
		for e := range ss.EdgeLoad {
			if ss.MoveLoad[e] < 0 || ss.MoveLoad[e] > ss.EdgeLoad[e] {
				return nil, fmt.Errorf("%w: shard %d: movement exceeds load on edge %d", snapshot.ErrCorrupt, si, e)
			}
		}
		for _, x := range ss.Drift {
			if x < 0 || x >= st.NumObjects || x%nshards != si {
				return nil, fmt.Errorf("%w: shard %d: drifted object %d not owned", snapshot.ErrCorrupt, si, x)
			}
		}
	}

	c, err := NewCluster(st.Tree, st.NumObjects, Options{
		Shards:             nshards,
		EpochRequests:      st.EpochRequests,
		Threshold:          st.Threshold,
		Parallelism:        opts.Parallelism,
		DecayShift:         uint(st.DecayShift),
		BandwidthAware:     st.BandwidthAware,
		WriteBudget:        st.WriteBudget,
		DriftThreshold:     st.DriftThreshold,
		DriftCheckRequests: st.DriftCheckRequests,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	if err := c.installState(st); err != nil {
		return nil, err
	}
	return c, nil
}

// installState populates a freshly built cluster from st under epochMu.
func (c *Cluster) installState(st *snapshot.State) error {
	nshards := len(c.shards)
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	for si, sh := range c.shards {
		ss := &st.ShardStates[si]
		sh.mu.Lock()
		sh.strat.ImportLoads(ss.EdgeLoad, ss.MoveLoad, ss.Requests)
		sh.cost = ss.Cost
		if b := sh.obsb; b != nil {
			// Seed the obs ledger from the image so it reconciles with
			// the restored conservation ledger from the first read.
			b.Store(obs.SlotEvents, ss.Requests)
			b.Store(obs.SlotCost, ss.Cost)
		}
		sh.tracker = dynamic.NewOfflineTrackerWith(st.Tree, ss.TrackerW)
		sh.tracker.MarkDrifted(ss.Drift)
		for x := si; x < st.NumObjects; x += nshards {
			if err := sh.strat.RestoreObject(x, st.Objects[x]); err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
			}
		}
		sh.mu.Unlock()
	}
	c.w = st.SolverW
	c.prev = st.PrevW
	c.served.Store(st.Served)
	c.snapSeq = st.Seq
	c.stats.Epochs = st.Epochs
	c.stats.DriftEpochs = st.DriftEpochs
	c.stats.Reconfigs = st.Reconfigs
	c.stats.Drifted = st.DriftedTotal
	c.stats.AdoptMoved = st.AdoptMoved
	c.stats.ResolveTime = time.Duration(st.ResolveTimeNs)
	c.stats.DroppedLoad = st.DroppedLoad
	c.stats.DroppedServiceLoad = st.DroppedServiceLoad
	if o := c.obs; o != nil {
		// The image does not carry per-shard drop attribution (drops are
		// booked cluster-wide in the stats); seed the totals on shard 0
		// so the obs ledger's totals still reconcile exactly.
		b0 := o.Shards.Block(0)
		b0.Store(obs.SlotDroppedLoad, st.DroppedLoad)
		b0.Store(obs.SlotDroppedCost, st.DroppedServiceLoad)
		o.Global.Store(obs.SlotDriftFires, st.DriftEpochs)
		// Replay the epoch log into the epoch histogram so its count
		// keeps equalling Stats.Epochs across a restore.
		for _, e := range st.EpochLog {
			o.EpochPass.Observe(e.ResolveNs)
		}
	}
	c.epochLog = make([]EpochStat, len(st.EpochLog))
	for i, e := range st.EpochLog {
		c.epochLog[i] = EpochStat{
			Epoch:            e.Epoch,
			Requests:         e.Requests,
			Drifted:          e.Drifted,
			Moved:            e.Moved,
			StaticCongestion: e.StaticCongestion,
			MaxEdgeLoad:      e.MaxEdgeLoad,
			ResolveNs:        e.ResolveNs,
			Trigger:          e.Trigger,
			DriftMagnitude:   e.DriftMagnitude,
		}
	}
	if st.Solved {
		// Re-arm the incremental pipeline: a fresh Solve over the restored
		// frequency view puts the solver in exactly the state from which
		// Resolve produces the same placements as the source cluster (the
		// Resolve ≡ fresh-Solve equivalence). The result is discarded — the
		// restored copy sets already ARE the adopted placement.
		if _, err := c.solver.Solve(c.w); err != nil {
			return fmt.Errorf("%w: re-arming solver: %v", snapshot.ErrCorrupt, err)
		}
		c.solved = true
	}
	return nil
}

// checkDims validates a snapshot workload's dimensions before any code
// that would panic on a mismatch sees it.
func checkDims(w *workload.W, objects, nodes int, what string) error {
	if w == nil {
		return fmt.Errorf("%w: missing %s", snapshot.ErrCorrupt, what)
	}
	if w.NumObjects() != objects || w.NumNodes() != nodes {
		return fmt.Errorf("%w: %s is %dx%d, want %dx%d", snapshot.ErrCorrupt, what, w.NumObjects(), w.NumNodes(), objects, nodes)
	}
	return nil
}

// SnapshotWait is Snapshot with bounded retry around the
// ErrReconfigInProgress collision: a snapshot landing while a
// reconfiguration (or another snapshot) holds the flag retries up to
// attempts times, doubling backoff between tries, instead of failing
// fast. Every other error — including a write failure — returns
// immediately. This is the drain-path form: a daemon shutting down wants
// "a snapshot, once the roll in flight finishes", not a hard failure
// that loses the final image. attempts <= 0 means one attempt (plain
// Snapshot); backoff <= 0 retries immediately.
func (c *Cluster) SnapshotWait(path string, attempts int, backoff time.Duration) (SnapshotStats, error) {
	if attempts <= 0 {
		attempts = 1
	}
	var ss SnapshotStats
	var err error
	for i := 0; i < attempts; i++ {
		ss, err = c.Snapshot(path)
		if !errors.Is(err, ErrReconfigInProgress) {
			return ss, err
		}
		if i < attempts-1 && backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	return ss, err
}

// SnapshotSeq returns the sequence number of the most recent Snapshot
// attempt (committed or crashed), 0 if none.
func (c *Cluster) SnapshotSeq() uint64 {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.snapSeq
}
