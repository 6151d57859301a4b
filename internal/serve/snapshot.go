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
	// Elapsed is the wall time of the whole call. CutStall is the portion
	// spent holding the ingest gate — the only window during which
	// concurrent Ingest calls can stall — and covers the consistent cut,
	// which encodes the image in memory; EncodeElapsed is that encode, a
	// part of CutStall. WriteElapsed (write, fsync, rename) happens after
	// the gate is released, so disk speed never bounds the serving stall.
	Elapsed       time.Duration
	CutStall      time.Duration
	EncodeElapsed time.Duration
	WriteElapsed  time.Duration
}

// RestoreOptions tune the cluster a Restore builds. Everything that
// affects serving decisions travels inside the snapshot; only the
// scheduling knob — which never changes results — is chosen here.
type RestoreOptions struct {
	// Parallelism bounds batch-serving and solver workers (as in
	// Options: batches below minFanOutShare events per worker are served
	// on the calling goroutine).
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
// An epoch pass in flight is not completed: the image records it (the
// calls left until its adoption and what its fold fixed), and a cluster
// restored from the image adopts it on the same call the source does.
// Completing it here would adopt at a point set by when the snapshot was
// taken rather than by the request sequence.
//
// The consistent cut is taken under the ingest gate — the same quiesce
// barrier reconfiguration commits use — and is one pass over live state:
// the image is encoded straight from the cluster's tables, load accounts
// and copy sets, with nothing cloned, over contiguous object ranges on up
// to Parallelism workers (the bytes do not depend on how many). Concurrent
// Ingest calls therefore stall for the in-memory encode, never for the
// disk write; the measured windows come back in SnapshotStats. Snapshot
// serializes with topology changes through the same flag as Reconfigure: a
// call while a reconfiguration (or another snapshot) is in flight fails
// fast with ErrReconfigInProgress, because mid-roll the shards straddle
// two ID spaces and no consistent single-tree image exists. A closed
// cluster can still be snapshotted (its state is frozen — the natural
// last step of a shutdown-for-handoff).
func (c *Cluster) Snapshot(path string) (SnapshotStats, error) {
	return c.SnapshotWith(path, snapshot.SaveOptions{})
}

// SnapshotWith is Snapshot with explicit save options — the seam the
// fault-injection harness uses to crash the write at a chosen byte.
// On an injected crash the returned stats are still meaningful (Seq,
// Bytes, CutStall, EncodeElapsed): the cut and its encode happened, the
// commit did not.
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
	ss.Seq = c.snapSeq
	var img *snapshot.Image
	t0 := time.Now()
	c.quiesce(func() {
		t1 := time.Now()
		img = c.encodeLocked()
		ss.EncodeElapsed = time.Since(t1)
	})
	ss.CutStall = time.Since(t0)
	c.epochMu.Unlock()
	ss.Bytes = int64(img.Len())

	t0 = time.Now()
	err := img.WriteFile(path, opts)
	ss.WriteElapsed = time.Since(t0)
	ss.Elapsed = time.Since(start)
	if o := c.obs; o != nil {
		o.SnapshotCut.Observe(ss.CutStall.Nanoseconds())
		o.Flight.Record(obs.EvSnapshot, -1, int64(ss.Seq), ss.Bytes, ss.CutStall.Nanoseconds())
	}
	return ss, err
}

// encodeLocked encodes the cluster's snapshot image (caller holds
// epochMu and the full ingest gate, and excludes reconfigurations, so the
// shard locks below are uncontended formality). The State it encodes
// references the live solver and frequency tables, load accounts and
// drift queues, and the encoder's workers export each object into their
// range's scratch state as they reach it, reading the strategies
// concurrently under the shard locks: nothing is cloned, and the bytes
// equal those of encoding a full copy of the same state. The image owns
// its bytes, so it outlives the gate.
func (c *Cluster) encodeLocked() *snapshot.Image {
	st := snapshot.State{
		Seq:        c.snapSeq,
		Tree:       c.t,
		NumObjects: c.numObjects,

		EpochRequests:      c.opts.EpochRequests,
		Threshold:          c.opts.Threshold,
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
		EpochLog:           c.epochLog,
		Pending:            c.pendingLocked(),
		SolverW:            c.w,
		TrackerW:           c.freq,

		ShardStates: make([]snapshot.ShardState, len(c.shards)),
	}
	for si, sh := range c.shards {
		sh.mu.Lock()
		st.ShardStates[si] = snapshot.ShardState{
			EdgeLoad: sh.strat.EdgeLoad,
			MoveLoad: sh.strat.MoveLoad(),
			Requests: sh.strat.Requests(),
			Cost:     sh.cost,
			Drift:    sh.tracker.Drifted(),
			Since:    sh.tracker.Since(),
		}
	}
	img := c.snapEnc.Encode(&st, c.opts.Parallelism, func(x int, o *dynamic.ObjectState) *dynamic.ObjectState {
		c.shards[x%len(c.shards)].strat.ExportObjectInto(x, o)
		return o
	})
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
	return img
}

// pendingLocked is the image's record of the pass in flight, if any
// (caller holds epochMu).
func (c *Cluster) pendingLocked() snapshot.PendingPass {
	p := &c.pass
	if p.calls == 0 {
		return snapshot.PendingPass{}
	}
	return snapshot.PendingPass{
		Calls:          passCalls - p.calls,
		Requests:       p.rec.Requests,
		Drifted:        p.rec.Drifted,
		Trigger:        p.rec.Trigger,
		DriftMagnitude: p.rec.DriftMagnitude,
	}
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
// the source cluster's from the cut onward (see RestoreState), for v2
// images too, whose nearest tables are rebuilt from their copy lists. A
// v2 image whose retired decay-shift slot holds 0 (full history, the
// default of its time) restores the same state and halves the solver's
// history from its next pass on.
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
// decisions exactly from the cut onward. Copy lists and live read
// counters are restored verbatim, and nearest tables are rebuilt from the
// lists (see dynamic.RestoreObject); write-broadcast edge sets are rebuilt
// (pure function of the copy set); the frequency tables and each shard's
// counts since its objects' last fold are the decoded ones, with no fresh
// table allocated beside them; the solver is re-armed with a full Solve
// over the restored frequency view, which by the Resolve ≡ fresh-Solve
// contract yields the same future epoch placements the source would have
// produced. Parallelism
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
	if err := checkDims(st.TrackerW, st.NumObjects, nodes, "tracker workload"); err != nil {
		return nil, err
	}
	since := make([]*dynamic.SinceFold, nshards)
	for si := range st.ShardStates {
		ss := &st.ShardStates[si]
		if len(ss.EdgeLoad) != edges || len(ss.MoveLoad) != edges {
			return nil, fmt.Errorf("%w: shard %d: %d/%d load entries for %d edges", snapshot.ErrCorrupt, si, len(ss.EdgeLoad), len(ss.MoveLoad), edges)
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
		s := ss.Since
		if s == nil {
			return nil, fmt.Errorf("%w: shard %d: no since-fold state", snapshot.ErrCorrupt, si)
		}
		if s.NumObjects() != st.NumObjects || s.NumNodes() != nodes || s.Stride() != nshards {
			return nil, fmt.Errorf("%w: shard %d: since-fold state for %d objects, %d nodes, stride %d",
				snapshot.ErrCorrupt, si, s.NumObjects(), s.NumNodes(), s.Stride())
		}
		since[si] = s
	}

	c, err := newCluster(st.Tree, st.NumObjects, Options{
		Shards:             nshards,
		EpochRequests:      st.EpochRequests,
		Threshold:          st.Threshold,
		Parallelism:        opts.Parallelism,
		BandwidthAware:     st.BandwidthAware,
		WriteBudget:        st.WriteBudget,
		DriftThreshold:     st.DriftThreshold,
		DriftCheckRequests: st.DriftCheckRequests,
	}, true, &freqTables{freq: st.TrackerW, w: st.SolverW, since: since})
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
		sh.tracker.MarkDrifted(ss.Drift)
		for x := si; x < st.NumObjects; x += nshards {
			if err := sh.strat.RestoreObject(x, st.Objects[x]); err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
			}
		}
		sh.mu.Unlock()
	}
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
	c.epochLog = st.EpochLog
	if p := st.Pending; p.Calls >= passCalls || (p.Calls > 0 && p.Drifted > st.NumObjects) {
		return fmt.Errorf("%w: pending pass adopts in %d calls, re-solving %d objects", snapshot.ErrCorrupt, p.Calls, p.Drifted)
	}
	if st.Solved {
		// Re-arm the incremental pipeline: a fresh Solve over the restored
		// frequency view puts the solver in exactly the state from which
		// Resolve produces the same placements as the source cluster (the
		// Resolve ≡ fresh-Solve equivalence). The restored copy sets
		// already ARE the adopted placement, so the result is discarded —
		// unless a pass is pending: its fold is in the restored view, and
		// by the same equivalence the Solve is the placement the source's
		// re-solve produces, which the restored cluster adopts on the same
		// call as the source.
		res, err := c.solver.Solve(c.w)
		if err != nil {
			return fmt.Errorf("%w: re-arming solver: %v", snapshot.ErrCorrupt, err)
		}
		c.solved = true
		if p := st.Pending; p.Calls > 0 {
			c.pass = epochPass{calls: passCalls - p.Calls, res: res, rec: EpochStat{
				Requests:       p.Requests,
				Drifted:        p.Drifted,
				Trigger:        p.Trigger,
				DriftMagnitude: p.DriftMagnitude,
			}}
			c.inFlight.Store(true)
		}
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
