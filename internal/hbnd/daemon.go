// Package hbnd is the serving daemon: a TCP front end over serve.Cluster
// speaking the internal/wire protocol, with the robustness machinery the
// in-process API does not need — bounded admission with explicit
// shedding, per-request deadline budgets, graceful drain, durable
// restart from snapshot + tail log, and live process-to-process handoff.
//
// The one structural decision everything else leans on: batches are
// applied one at a time under applyMu, each on the connection goroutine
// that read it (parallelism lives inside Cluster.Ingest, not across
// batches), and every epoch pass runs on the Ingest calls of the batches
// that cross it: it starts on the crossing batch and, unless that batch
// is long enough to run it whole, is spread over the next few applies
// and adopted on a fixed one of them. The apply sequence number and the
// tail append are taken under the same lock, so the tail log's order is
// the lock order: every applied batch has a place in one total order,
// and every epoch pass and its adoption a fixed place in it. That is
// what makes restart and handoff bit-identical: snapshot + ordered tail
// replay reproduces exactly the serving state of the uninterrupted
// process (the serve.TestSnapshotRestoreIdentity contract), a pass in
// flight at the cut included, since the image records it and the
// restored cluster adopts it on the same replayed batch. Concurrent
// applies would be faster on paper and unreplayable in practice.
//
// Admission is an atomic count of admitted batches still waiting for
// applyMu; a batch arriving with QueueCap already waiting is shed. The
// wait is not FIFO: sync.Mutex lets a newly arriving goroutine take the
// lock ahead of a waiting one, until a waiter has waited more than 1 ms;
// from then on the mutex hands itself to its waiters in arrival order.
// A waiting batch can therefore be overtaken only during its first ~1 ms
// of waiting, and the overload tests bound accepted-request latency end
// to end.
//
// Restart restores the newest usable snapshot and replays every frame of
// the tail log on top of it: the image does not record which frames it
// holds. The tail is truncated only after SnapshotWait returns (in
// snapshotNow, Drain and the handoff cut), so a kill after a snapshot's
// final rename and before that truncate restarts from the new image and
// replays frames the image already holds. Those batches are applied
// twice, and the restored request count exceeds the pre-crash one. The
// window spans the snapshot's directory fsync and the truncate; it closes
// when recovery replays only the frames after the image's cut, which
// belongs with rotating the tail at the cut (ROADMAP item 5).
//
// The tail holds only the frames after the newest snapshot's cut. So a
// restart whose restore falls back past a primary that does not verify
// (to the generation before it, path.prev) replays a tail that starts at
// the damaged primary's cut: the batches applied between the two
// generations' cuts are lost, with no error, and the daemon serves on.
// With snapshots after 2,000 and 4,000 events, 2,000 more in the tail, an
// abrupt Close and one bit flipped in the primary, 6,000 requests were
// acknowledged and 4,000 restored. Keeping the tail back to path.prev's
// cut belongs with the same rotation.
package hbnd

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hbn/internal/serve"
	"hbn/internal/snapshot"
	"hbn/internal/tree"
	"hbn/internal/wire"
)

// Config configures a Daemon. The topology/cluster fields describe the
// cold start only — when a usable snapshot exists at SnapshotPath the
// shape travels inside it and these are ignored.
type Config struct {
	// Addr is the TCP listen address (host:port; :0 picks a free port).
	Addr string
	// SnapshotPath is the durable snapshot location. TailPath is the
	// sequence-numbered frame log of batches applied since the last
	// snapshot; it defaults to SnapshotPath + ".tail".
	SnapshotPath string
	TailPath     string

	// Cold-start shape: an SCI-style cluster (Switches top-ring switches,
	// ProcsPerRing processors per leaf ring) serving NumObjects objects.
	Switches     int
	ProcsPerRing int
	RingBW       int64
	SwitchBW     int64
	NumObjects   int

	// Cluster tuning (as in serve.Options).
	EpochRequests int64
	Threshold     int
	Shards        int
	Parallelism   int

	// QueueCap bounds the admission queue: the batches admitted but still
	// waiting for the one in apply. A batch arriving with QueueCap already
	// waiting is shed with a typed overload reply, never queued. <= 0
	// means 64.
	QueueCap int

	// Standby starts the daemon warm but empty: it rejects serving
	// traffic until a live handoff streams a primary's state into it and
	// promotes it.
	Standby bool

	// IdleTimeout bounds each connection's per-frame read (and each
	// reply write): a peer that trickles bytes slower than this —
	// slow-loris, half-dead links — is cut off rather than pinning its
	// handler goroutine. <= 0 means 30s.
	IdleTimeout time.Duration

	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.TailPath == "" {
		c.TailPath = c.SnapshotPath + ".tail"
	}
	if c.Switches <= 0 {
		c.Switches = 4
	}
	if c.ProcsPerRing <= 0 {
		c.ProcsPerRing = 4
	}
	if c.RingBW <= 0 {
		c.RingBW = 4
	}
	if c.SwitchBW <= 0 {
		c.SwitchBW = 8
	}
	if c.NumObjects <= 0 {
		c.NumObjects = 1024
	}
	if c.EpochRequests == 0 {
		c.EpochRequests = 4096
	}
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Daemon is one serving process. Create with New, run with Serve, stop
// with Drain (graceful) or Close (abrupt).
type Daemon struct {
	cfg Config
	ln  net.Listener

	// cl is nil while in standby; published by promote() before the
	// standby flag clears, so any handler observing standby==false sees
	// the cluster.
	cl   *serve.Cluster
	tail *wire.Log

	// applyMu serializes applies: an admitted batch holds it from its
	// deadline check through its tail append. Control operations
	// (snapshot, reconfigure, handoff cut) hold it so their cluster calls
	// never interleave with an apply, and so consistency points (tail
	// truncation vs snapshot) are atomic with respect to the total order.
	applyMu    sync.Mutex
	appliedSeq atomic.Uint64
	tailBuf    []byte // tail frame body of the batch in apply; guarded by applyMu
	// tailClosed is set by whichever of Drain and Close closes the tail.
	tailClosed atomic.Bool

	// waiting counts admitted batches that do not hold applyMu yet: the
	// admission queue QueueCap bounds.
	waiting atomic.Int64
	// drainMu fences admission against drain: a batch holds the read side
	// from its draining check until it is applied or expired, and
	// stopAdmission sets the flag under the write side.
	drainMu  sync.RWMutex
	draining atomic.Bool

	standby atomic.Bool // true until a handoff promotes us
	retired atomic.Bool // true after handing our state off

	// Admission counters (see wire.DaemonStats).
	acceptedBatches, acceptedEvents atomic.Int64
	shedBatches, shedEvents         atomic.Int64
	expiredBatches, expiredEvents   atomic.Int64
	queueHighWater                  atomic.Int64
	ewmaApplyNs                     atomic.Int64

	// lastShedNs coalesces shed-burst flight events: a storm of back-to-
	// back sheds records one event per ~10ms window, not one per batch,
	// so overload can never evict the structural story from the ring.
	lastShedNs atomic.Int64

	// applyDelayNs stretches every apply (SetApplyDelay) — the fault-
	// injection seam that makes "2× sustainable offered load"
	// reproducible on hardware of any speed.
	applyDelayNs atomic.Int64

	connWg sync.WaitGroup
	quit   chan struct{}
}

// New builds a daemon: restore from the snapshot ladder when one exists,
// replay the tail log on top, cold-start otherwise. Standby daemons
// skip all of it and wait for a handoff.
func New(cfg Config) (*Daemon, error) {
	cfg.defaults()
	if cfg.SnapshotPath == "" {
		return nil, errors.New("hbnd: Config.SnapshotPath is required")
	}
	d := &Daemon{
		cfg:  cfg,
		quit: make(chan struct{}),
	}
	d.standby.Store(cfg.Standby)
	if !cfg.Standby {
		if err := d.openState(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// openState restores or cold-starts the cluster and opens the tail log.
func (d *Daemon) openState() error {
	cfg := &d.cfg
	cl, info, err := serve.Restore(cfg.SnapshotPath, serve.RestoreOptions{Parallelism: cfg.Parallelism})
	switch {
	case err == nil:
		cfg.Logf("hbnd: restored snapshot seq %d from %s (fallback=%v)", info.Seq, info.Path, info.Fallback)
	case errors.Is(err, snapshot.ErrNoSnapshot):
		t := tree.SCICluster(cfg.Switches, cfg.ProcsPerRing, cfg.RingBW, cfg.SwitchBW)
		cl, err = serve.NewCluster(t, cfg.NumObjects, serve.Options{
			Shards:        cfg.Shards,
			EpochRequests: cfg.EpochRequests,
			Threshold:     cfg.Threshold,
			Parallelism:   cfg.Parallelism,
		})
		if err != nil {
			return fmt.Errorf("hbnd: cold start: %w", err)
		}
		cfg.Logf("hbnd: cold start (%d switches × %d procs, %d objects)", cfg.Switches, cfg.ProcsPerRing, cfg.NumObjects)
	default:
		// A present-but-unusable snapshot is an operator problem, not a
		// license to silently serve from nothing.
		return fmt.Errorf("hbnd: restore: %w", err)
	}

	frames, err := wire.ReadTail(cfg.TailPath)
	if err != nil {
		cl.Close()
		return fmt.Errorf("hbnd: %w", err)
	}
	var events []serve.Request
	for _, f := range frames {
		if events, err = wire.ParseTailBody(f.Body, events); err != nil {
			cl.Close()
			return fmt.Errorf("hbnd: tail replay seq %d: %w", f.Seq, err)
		}
		if _, err := cl.Ingest(events); err != nil {
			cl.Close()
			return fmt.Errorf("hbnd: tail replay seq %d: %w", f.Seq, err)
		}
		d.appliedSeq.Store(f.Seq)
	}
	if n := len(frames); n > 0 {
		cfg.Logf("hbnd: replayed %d tail batches through seq %d", n, d.appliedSeq.Load())
	}
	tail, err := wire.OpenLog(cfg.TailPath)
	if err != nil {
		cl.Close()
		return fmt.Errorf("hbnd: %w", err)
	}
	d.cl = cl
	d.tail = tail
	return nil
}

// Listen binds the daemon's TCP listener (split from Serve so callers
// learn the port of an Addr ending in :0 before traffic starts).
func (d *Daemon) Listen() error {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return fmt.Errorf("hbnd: %w", err)
	}
	d.ln = ln
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (d *Daemon) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Serve accepts connections until the listener closes (Drain/Close).
func (d *Daemon) Serve() error {
	if d.ln == nil {
		if err := d.Listen(); err != nil {
			return err
		}
	}
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			select {
			case <-d.quit:
				return nil // closed by Drain/Close
			default:
				return fmt.Errorf("hbnd: accept: %w", err)
			}
		}
		d.connWg.Add(1)
		go func() {
			defer d.connWg.Done()
			d.handleConn(conn)
		}()
	}
}

// Stats assembles the daemon-level counters plus the cluster ledger.
func (d *Daemon) Stats() *wire.DaemonStats {
	s := &wire.DaemonStats{
		AppliedSeq:      d.appliedSeq.Load(),
		AcceptedBatches: d.acceptedBatches.Load(),
		AcceptedEvents:  d.acceptedEvents.Load(),
		ShedBatches:     d.shedBatches.Load(),
		ShedEvents:      d.shedEvents.Load(),
		ExpiredBatches:  d.expiredBatches.Load(),
		ExpiredEvents:   d.expiredEvents.Load(),
		QueueLen:        d.waiting.Load(),
		QueueCap:        int64(d.cfg.QueueCap),
		QueueHighWater:  d.queueHighWater.Load(),
		Draining:        d.draining.Load(),
	}
	if d.standby.Load() {
		return s
	}
	st := d.cl.Stats()
	s.Requests = st.Requests
	s.ServiceCost = st.ServiceCost
	s.DroppedLoad = st.DroppedLoad
	s.DroppedServiceLoad = st.DroppedServiceLoad
	s.Epochs = st.Epochs
	s.Reconfigs = st.Reconfigs
	s.MaxEdgeLoad = d.cl.MaxEdgeLoad()
	s.SnapshotSeq = d.cl.SnapshotSeq()
	for _, v := range d.cl.ServiceLoad() {
		s.ServiceLoadSum += v
	}
	return s
}

// Drain is the graceful shutdown: stop accepting connections, shed new
// batches, wait until every admitted batch is applied or expired, write a
// final snapshot (waiting out any reconfiguration in flight), truncate
// the now redundant tail, and close the tail and the cluster. Safe to
// call once; returns the final snapshot's stats.
func (d *Daemon) Drain() (serve.SnapshotStats, error) {
	var ss serve.SnapshotStats
	d.stopServing()
	if d.stopAdmission() {
		return ss, errors.New("hbnd: already draining")
	}
	if d.standby.Load() {
		return ss, nil
	}
	ss, err := d.cl.SnapshotWait(d.cfg.SnapshotPath, 10, 5*time.Millisecond)
	if err != nil {
		return ss, fmt.Errorf("hbnd: final snapshot: %w", err)
	}
	if err := d.tail.Truncate(); err != nil {
		return ss, err
	}
	tailErr := d.closeTail()
	d.cfg.Logf("hbnd: drained; final snapshot seq %d (%d bytes)", ss.Seq, ss.Bytes)
	return ss, errors.Join(tailErr, d.cl.Close())
}

// Close shuts down abruptly: no final snapshot (the tail log preserves
// everything applied since the last one — the crash-restart path). It
// still waits for the admitted batches, and returns the tail's sync and
// close errors with the cluster's.
func (d *Daemon) Close() error {
	d.stopServing()
	d.stopAdmission()
	if d.standby.Load() {
		return nil
	}
	return errors.Join(d.closeTail(), d.cl.Close())
}

// stopServing closes the listener, so no new connection is accepted.
func (d *Daemon) stopServing() {
	select {
	case <-d.quit:
	default:
		close(d.quit)
	}
	if d.ln != nil {
		d.ln.Close()
	}
}

// closeTail syncs and closes the tail log the first time it is called;
// later calls return nil.
func (d *Daemon) closeTail() error {
	if d.tailClosed.Swap(true) {
		return nil
	}
	return errors.Join(d.tail.Sync(), d.tail.Close())
}

// Cluster exposes the underlying cluster for in-process inspection
// (tests and the bench harness); nil while in standby.
func (d *Daemon) Cluster() *serve.Cluster {
	if d.standby.Load() {
		return nil
	}
	return d.cl
}

// snapshotNow is the TSnapshot handler: take applyMu at a batch
// boundary, snapshot, truncate the tail (its frames are all included in
// the image now). Applies stay paused through the cut, the write, fsync
// and rename, and the truncate, and that pause is the stall the reply
// reports: no batch is applied while the daemon holds applyMu, however
// short the cluster's own cut.
func (d *Daemon) snapshotNow() (*wire.SnapshotResult, error) {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	paused := time.Now()
	ss, err := d.cl.SnapshotWait(d.cfg.SnapshotPath, 10, 5*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if err := d.tail.Truncate(); err != nil {
		return nil, err
	}
	// Read last, just before the deferred unlock ends the pause.
	return &wire.SnapshotResult{Seq: ss.Seq, Bytes: ss.Bytes, CutStallNs: time.Since(paused).Nanoseconds()}, nil
}

// reconfigure is the TReconfig handler. A reconfiguration invalidates
// the tail log's replayability (its events reference the old topology),
// so it commits a fresh snapshot and truncates the tail before
// returning — a reconfigure the client saw acknowledged survives a
// restart. Applies are paused for all three steps, and that pause is
// the stall the reply reports: the cluster's own rolling stall bound
// does not apply while the daemon holds applyMu.
func (d *Daemon) reconfigure(req *wire.ReconfigRequest) (*wire.ReconfigResult, error) {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	paused := time.Now()
	rs, err := d.cl.Reconfigure(req.Diff)
	if err != nil {
		return nil, err
	}
	if _, err := d.cl.SnapshotWait(d.cfg.SnapshotPath, 10, 5*time.Millisecond); err != nil {
		return nil, fmt.Errorf("post-reconfigure snapshot: %w", err)
	}
	if err := d.tail.Truncate(); err != nil {
		return nil, err
	}
	return &wire.ReconfigResult{
		// Read last, just before the deferred unlock ends the pause.
		MaxIngestStallNs:   time.Since(paused).Nanoseconds(),
		DroppedLoad:        rs.DroppedLoad,
		DroppedServiceLoad: rs.DroppedServiceLoad,
	}, nil
}

// removeStaleState clears snapshot + tail files (standby promotion
// writes fresh ones; a stale pair from a previous life must not shadow
// them).
func removeStaleState(snapPath, tailPath string) {
	os.Remove(snapPath)
	os.Remove(snapshot.PrevPath(snapPath))
	os.Remove(tailPath)
}
