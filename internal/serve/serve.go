// Package serve is the concurrent online serving layer: the subsystem
// where the paper's near-optimal static machinery (core.Solver) and the
// online strategy (dynamic.Strategy) meet live traffic.
//
// A Cluster shards the object space over independent dynamic strategies
// (object x is owned by shard x % Shards; every piece of per-object state
// — copy sets, nearest tables, read counters — is per-object, so the
// sharding is exact: aggregate loads are identical to a single strategy
// serving the whole sequence). Batches ingested by Ingest are partitioned
// by owner (counting-sorted into pooled scratch: the steady-state request
// hot path allocates nothing, guarded by TestIngestSteadyAllocs and
// TestIngestSmallBatchAllocsMultiCore) and served through
// Strategy.ServeBatch, which serves each shard's partition request by
// request; each shard's OfflineTracker records the observed frequencies
// in bulk as it serves, into the one frequency table the cluster keeps
// (a shard writes only its own objects' rows, under its own lock, so the
// table's size does not grow with the shard count), and marks the cells
// its objects touched since their last fold. A batch large enough
// to give every worker at least minFanOutShare events is served
// shard-parallel; a smaller one is served shard by shard on the calling
// goroutine.
//
// Every EpochRequests served requests, an epoch pass feeds the objects
// whose frequencies drifted since the previous pass into a shared
// core.Solver — a full Solve on the first epoch, the incremental Resolve
// afterwards — and pushes the freshly solved static placement back into
// the shards: each shard atomically (under its lock) adopts the new copy
// sets as its warm state via Strategy.AdoptCopySet. Adoption repositions
// every object to the near-optimal static placement for the traffic
// actually observed, and threshold dynamics resume from there, so the
// cluster tracks phase shifts at epoch granularity instead of one
// threshold-crossing at a time.
//
// A pass is spread over the next few Ingest calls: the call that crosses
// the boundary folds the drift and starts the re-solve, later calls step
// it through the solver's stages (core.Solver.Step), and the last adopts
// (see passSlices). The crossing call fixes what the pass folds, and the
// adoption comes a fixed number of calls later, so a cluster fed the
// same batches makes the same decisions whatever the timing; the shards
// serve with the online strategy meanwhile. A batch long next to the re-solve
// cadence runs its pass whole (see inlinePass), and so do ResolveNow and
// Reconfigure. A snapshot records a pass in flight, and a restored
// cluster adopts it on the same call.
//
// Cost accounting: request service and threshold-driven copy movement are
// charged to the per-edge loads exactly as in dynamic.Strategy. Adoption
// movement (the bulk transfers that install a new placement) is booked
// separately as a total distance (Stats.AdoptMoved) — it is scheduled
// off the request path, and keeping it out of the per-edge account keeps
// the serving loads comparable between re-solving and non-re-solving
// configurations of the same trace.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hbn/internal/core"
	"hbn/internal/dynamic"
	"hbn/internal/obs"
	"hbn/internal/par"
	"hbn/internal/snapshot"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Request is one online access (an alias of the canonical trace event).
type Request = workload.TraceEvent

// ErrClosed reports an operation on a cluster after Close. Accessors
// (loads, stats, copies, snapshots) stay usable on a closed cluster; the
// mutating paths — Ingest, ResolveNow, Reconfigure — fail with an error
// satisfying errors.Is(err, ErrClosed).
var ErrClosed = errors.New("serve: cluster is closed")

// ErrBadOptions reports an invalid Options value, matched with errors.Is
// through the wrapped error NewCluster returns. Out-of-range values are
// rejected instead of coerced: a negative epoch cadence or a NaN drift
// threshold is always a caller bug, and serving with silently substituted
// options makes the recorded stats unreproducible.
var ErrBadOptions = errors.New("serve: invalid options")

// Options tune a Cluster.
type Options struct {
	// Shards is the number of object shards (and dynamic strategies)
	// serving in parallel. <= 0 means 1.
	Shards int
	// EpochRequests triggers an epoch re-solve every time this many
	// requests have been served. 0 disables the cadence (the cluster then
	// re-solves only on drift triggers, or never when those are off too);
	// negative values are rejected with ErrBadOptions.
	EpochRequests int64
	// Threshold is the read-replication threshold of the per-shard dynamic
	// strategies (see dynamic.Options). Must be >= 1.
	Threshold int
	// BandwidthAware scales each shard strategy's per-edge replication
	// budget by edge bandwidth (see dynamic.Options.BandwidthAware): edges
	// whose crossings are expensive replicate sooner. False keeps the flat
	// hop threshold.
	BandwidthAware bool
	// WriteBudget is the per-shard strategies' contraction budget (see
	// dynamic.Options.WriteBudget): a multi-copy set survives this many
	// consecutive writes with no intervening read before it contracts to a
	// single copy. 0 and 1 both contract on every write (the pre-budget
	// behavior, still the default); Threshold is the natural opt-in
	// setting. Negative values are rejected with ErrBadOptions.
	WriteBudget int
	// DriftThreshold arms the drift-magnitude epoch trigger: every
	// DriftCheckRequests served requests the cluster measures how far the
	// observed frequency vectors have moved since the last adoption — the
	// request-weighted mean, over drifted objects, of the L1 distance
	// between each object's normalized new-traffic vector and its
	// normalized vector at last adoption (range [0,2]; 2 means the new
	// traffic lands on entirely different processors) — and runs an epoch
	// pass when the mean is at least DriftThreshold. 0 disables the
	// trigger; EpochRequests keeps firing as the fallback cadence either
	// way. Negative or NaN values are rejected with ErrBadOptions.
	DriftThreshold float64
	// DriftCheckRequests is the cadence (in served requests) of the
	// drift-magnitude measurement. 0 defaults to max(1, EpochRequests/8)
	// when the trigger is armed — checking a few times per fallback epoch —
	// and is rejected with ErrBadOptions if that leaves no cadence (both
	// zero) while DriftThreshold is set. Negative values are rejected.
	DriftCheckRequests int64
	// Parallelism bounds the workers serving shards of one batch, the
	// epoch pass's drift fold (over objects) and adoption (over shards),
	// and the solver's object-parallel stages. <= 0 means GOMAXPROCS. A
	// batch is served on more than one worker only when each gets at
	// least minFanOutShare (512) events.
	Parallelism int
}

// minFanOutShare is the fewest events per worker for which Ingest serves a
// batch's shards on parallel workers. Below it the shards are served one
// after another on the calling goroutine: waking a second worker takes
// longer than serving the batch. The crossover was measured on a 2-vCPU
// host; DESIGN.md has the table, under "No fan-out for small batches".
const minFanOutShare = 512

// flightRecorderSize bounds the obs flight recorder: the most recent 1024
// structural events.
const flightRecorderSize = 1024

// passSlices is the number of slices an epoch pass is cut into, unless it
// runs inline (see inlinePass), and passSpacing the calls from one slice
// to the next: a pass spans passCalls Ingest calls. The call that crosses
// the boundary folds and runs the first half of Steps 1–2; the slice
// passSpacing calls later runs the rest of them and Step 3; the next the
// per-object finish and the re-evaluation; and the last adopts
// (slicePassLocked). With the stage costs of one pass on the bench shape,
// no slice runs more than about two fifths of the pass.
//
// The spacing is for callers that wait on one another. Where calls are
// serialized, as the daemon's applies are, a client whose call ran a
// slice, or waited behind one, sends its next request at once; with the
// slices three calls apart, that request, and the other client's call
// queued behind the slice, find a call with no pass work ahead of them.
// On consecutive calls, the daemon's snapshot requests waited behind a
// second slice in over half the cases. DESIGN.md has both measurements,
// under "Spreading each epoch pass over the next Ingest calls".
const (
	passSlices  = 4
	passSpacing = 3
	passCalls   = (passSlices-1)*passSpacing + 1
)

// validate rejects option values that would silently change serving
// semantics if coerced. Shards <= 0 meaning 1 and Parallelism <= 0 meaning
// GOMAXPROCS stay as documented defaults — those are stated semantics, not
// coercions.
func (o Options) validate() error {
	if o.Threshold < 1 {
		return fmt.Errorf("%w: Threshold %d, want >= 1", ErrBadOptions, o.Threshold)
	}
	if o.WriteBudget < 0 {
		return fmt.Errorf("%w: WriteBudget %d, want >= 0 (0 and 1 contract eagerly)", ErrBadOptions, o.WriteBudget)
	}
	if o.EpochRequests < 0 {
		return fmt.Errorf("%w: EpochRequests %d, want >= 0", ErrBadOptions, o.EpochRequests)
	}
	if math.IsNaN(o.DriftThreshold) || o.DriftThreshold < 0 {
		return fmt.Errorf("%w: DriftThreshold %v, want >= 0", ErrBadOptions, o.DriftThreshold)
	}
	if o.DriftCheckRequests < 0 {
		return fmt.Errorf("%w: DriftCheckRequests %d, want >= 0", ErrBadOptions, o.DriftCheckRequests)
	}
	return nil
}

// EpochStat records one epoch pass, for per-epoch comparison against the
// clairvoyant static optimum. It is the snapshot image's epoch record, so
// the log is cut into an image and restored from one as it is; the field
// docs are at snapshot.EpochRec.
type EpochStat = snapshot.EpochRec

// Epoch trigger labels recorded in EpochStat.Trigger.
const (
	TriggerCadence = "cadence"
	TriggerDrift   = "drift"
	TriggerManual  = "manual"
)

// Stats is a point-in-time summary of a Cluster.
type Stats struct {
	Requests    int64 // requests served
	ServiceCost int64 // total service cost (sum of Serve costs)
	Epochs      int64 // epoch passes adopted (reconfigures included)
	DriftEpochs int64 // epoch passes fired by the drift-magnitude trigger
	Reconfigs   int64 // topology reconfigurations completed
	Drifted     int64 // objects re-solved, summed over passes
	AdoptMoved  int64 // adoption movement distance, summed (incl. migration)
	// ResolveTime sums the wall time of every adopted epoch pass — drift
	// fold, solve, adoption and max-edge fold, not the solver call alone,
	// over all the calls it was spread over (see EpochStat.ResolveNs) —
	// plus each reconfiguration's elapsed time.
	ResolveTime time.Duration
	// DroppedLoad / DroppedServiceLoad accumulate the per-reconfigure
	// ReconfigStats ledger across the cluster's lifetime, closing the
	// conservation equality Σ ServiceLoad + DroppedServiceLoad ==
	// ServiceCost as an internal invariant — one that snapshots carry and
	// the crash harness re-checks after every recovery.
	DroppedLoad        int64
	DroppedServiceLoad int64
}

type shard struct {
	mu      sync.Mutex
	strat   *dynamic.Strategy
	tracker *dynamic.OfflineTracker
	cost    int64 // total service cost of this shard
	// obsb is this shard's padded telemetry counter block (nil without
	// telemetry; see newCluster). Held directly so the per-batch booking
	// is a concrete atomic add on the shard's own cache line — no
	// interface dispatch, no sharing with neighbouring shards.
	obsb *obs.Block
	// onNew marks that a staged reconfiguration has already migrated this
	// shard onto the roll's new tree (guarded by mu; reset under the full
	// ingest gate when the roll commits). While it is set and a roll is
	// active, this shard's requests are translated from old to new IDs on
	// the way in.
	onNew bool
}

// rollState is the double-buffered topology of one staged (rolling)
// reconfiguration in flight: the cluster's visible tree (c.t) is still
// the OLD one — Ingest keeps validating and accepting old IDs — while
// shards migrate onto the new tree one at a time. The struct is immutable
// once published (installed and cleared under the full ingest gate;
// read under its read side), so gated readers never race.
type rollState struct {
	newTree *tree.Tree
	remap   *topo.Remap
	// fallback maps every old leaf to its serving leaf on the new tree
	// (itself when it survives, the nearest surviving leaf otherwise), so
	// traffic addressed to doomed processors keeps being served — and
	// conserved — throughout the swap.
	fallback []tree.NodeID
}

// ingestScratch is the reusable partition state of one in-flight Ingest
// call: the batch is counting-sorted by owner shard into the single
// backing array buf (stable, so per-object request order is preserved),
// and serve is the pre-bound worker closure so the steady path constructs
// nothing per call. Scratch cycles through a sync.Pool — concurrent
// ingesters each hold their own — making Ingest allocation-free once the
// high-water batch size has been seen.
type ingestScratch struct {
	c       *Cluster
	serve   func(worker, si int)
	buf     []Request
	aliased bool    // buf aliases the caller's batch (1 shard, no roll)
	start   []int32 // per shard: start offset into buf (len nshards+1)
	fill    []int32 // scatter cursors
	costs   []int64
}

func (sc *ingestScratch) serveShard(_, si int) {
	part := sc.buf[sc.start[si]:sc.start[si+1]]
	if len(part) == 0 {
		return
	}
	sh := sc.c.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.onNew {
		// A staged reconfiguration has moved this shard onto the new tree
		// while the batch is still addressed in old IDs: translate in the
		// scratch buffer (partition copied the batch for exactly this
		// case), sending traffic for doomed processors to their fallback
		// leaves so every request keeps being served and conserved.
		fb := sc.c.roll.fallback
		for i := range part {
			part[i].Node = fb[part[i].Node]
		}
	}
	cost := sh.strat.ServeBatch(part)
	sh.tracker.RecordBatch(part)
	sc.costs[si] = cost
	sh.cost += cost
	if b := sh.obsb; b != nil {
		// Booked inside the shard's critical section, so the obs ledger
		// and the conservation ledger (tracker/strategy state) can never
		// be observed out of step at quiescence.
		b.AddBatch(int64(len(part)), cost)
	}
}

// partition counting-sorts the batch by owner shard into sc.buf and sets
// sc.start. With one shard the batch is aliased, not copied.
func (sc *ingestScratch) partition(batch []Request) {
	nshards := len(sc.c.shards)
	if cap(sc.start) < nshards+1 {
		sc.start = make([]int32, nshards+1)
		sc.fill = make([]int32, nshards)
		sc.costs = make([]int64, nshards)
	}
	sc.start = sc.start[:nshards+1]
	sc.fill = sc.fill[:nshards]
	sc.costs = sc.costs[:nshards]
	for i := range sc.costs {
		sc.costs[i] = 0
	}
	sc.aliased = false
	if nshards == 1 {
		if sc.c.roll != nil {
			// Mid-roll the serve step may rewrite node IDs in place; never
			// alias the caller's batch then.
			if cap(sc.buf) < len(batch) {
				sc.buf = make([]Request, len(batch))
			}
			sc.buf = sc.buf[:len(batch)]
			copy(sc.buf, batch)
		} else {
			sc.buf = batch
			sc.aliased = true
		}
		sc.start[0], sc.start[1] = 0, int32(len(batch))
		return
	}
	for i := range sc.fill {
		sc.fill[i] = 0
	}
	for i := range batch {
		sc.fill[batch[i].Object%nshards]++
	}
	off := int32(0)
	for si, n := range sc.fill {
		sc.start[si] = off
		sc.fill[si] = off
		off += n
	}
	sc.start[nshards] = off
	if cap(sc.buf) < len(batch) {
		sc.buf = make([]Request, len(batch))
	}
	sc.buf = sc.buf[:len(batch)]
	for _, r := range batch {
		si := r.Object % nshards
		sc.buf[sc.fill[si]] = r
		sc.fill[si]++
	}
}

// Cluster is the sharded concurrent serving layer. All methods are safe
// for concurrent use.
type Cluster struct {
	t          *tree.Tree
	opts       Options
	numObjects int
	shards     []*shard
	isLeaf     []bool    // per node, precomputed: batch validation is one byte load per event
	scratch    sync.Pool // of *ingestScratch; see Ingest

	// freq is the observed-frequency table every shard's tracker records
	// into: shard si writes the rows of objects x ≡ si (mod Shards), under
	// its own lock, and the epoch pass reads them under every shard lock.
	// The pointer changes only in a reconfiguration's commit quiesce.
	freq *workload.W

	// Epoch machinery: epochMu serializes passes and guards everything
	// below it. The solver's workload w holds the aged frequencies the
	// epoch pass folds out of freq: each drifted object's counts since its
	// last fold, which its shard's tracker keeps (see collectDriftLocked).
	epochMu    sync.Mutex
	solver     *core.Solver
	w          *workload.W
	solved     bool
	changedBuf []int               // the ascending drifted-object list of the last fold
	fold       []shardFold         // per-shard scratch of the epoch pass
	last       [][]workload.Access // per worker of the pass: a row as of the object's last fold
	drifted    []bool              // per object: drained by this fold (sorts the list)
	drift      []objDrift          // per object: the drift measured by the last fold
	zero       []workload.Access   // a zero row of the tree's width: a last fold LastFold reports as nil
	stats      Stats
	epochLog   []EpochStat
	snapSeq    uint64           // monotone snapshot sequence number (see Snapshot)
	snapEnc    snapshot.Encoder // remembers the last image's fragment sizes, not its bytes
	// pass is the epoch pass in flight, and callNs the pass work the
	// current call has run (worked: any); inFlight mirrors pass.calls > 0
	// for Ingest's check outside epochMu.
	pass     epochPass
	callNs   int64
	worked   bool
	inFlight atomic.Bool
	// passHook, when set (tests only, before the first call), sees each
	// piece of pass work: the index of the call in its pass, the stage
	// ("fold", "solve", a core.Stage's name or "adopt") and the objects
	// it ran on (1 for a global solver stage).
	passHook func(call int, stage string, objects int)

	served  atomic.Int64
	closed  atomic.Bool
	closeMu sync.RWMutex // the ingest gate; see quiesce

	// obs is the cluster's telemetry registry (nil without telemetry).
	// All registry state is atomic; hot paths hold direct pointers into
	// it (each shard's obsb block).
	obs *obs.Registry

	// reconfiguring serializes Reconfigure calls: a second call arriving
	// while one is in flight fails fast with ErrReconfigInProgress instead
	// of queueing behind epochMu (which a reconfiguration holds for its
	// whole duration).
	reconfiguring atomic.Bool
	// snapMu serializes snapshots across cut and write: the write commits
	// through snapEnc, which remembers the last image it committed.
	snapMu sync.Mutex
	// roll is the reconfiguration in flight, nil otherwise.
	// Written only inside quiesce (the full ingest gate); read under the
	// gate's read side.
	roll *rollState
	// rollHook, when set (tests only, before the call), runs after each
	// shard's migration with the count of shards migrated so far — the
	// probe that lets tests freeze a roll mid-swap and observe the
	// double-buffered serving state deterministically.
	rollHook func(migrated int)
}

// quiesce write-acquires the ingest gate, runs fn and releases. This is
// the cluster's one gating primitive: returning guarantees that every
// gated call — Ingest batches, load accessors — that began before quiesce
// has fully finished, that none started while fn ran, and that fn's
// writes are visible to every gated call that starts afterwards. The
// reconfiguration and snapshot paths use it to publish
// topology-generation changes (the roll state, the tree swap) and to take
// consistent cuts atomically with respect to serving.
func (c *Cluster) quiesce(fn func()) {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	fn()
}

// NewCluster creates a cluster for numObjects objects on t. The tree must
// be a valid hierarchical bus network. Invalid options are rejected with
// an error satisfying errors.Is(err, ErrBadOptions).
func NewCluster(t *tree.Tree, numObjects int, opts Options) (*Cluster, error) {
	return newCluster(t, numObjects, opts, true, nil)
}

// freqTables are a cluster's two frequency tables (see Cluster.freq and
// w), each numObjects × t.Len(), and each shard's since-fold state over
// freq.
type freqTables struct {
	freq, w *workload.W
	since   []*dynamic.SinceFold
}

// newCluster is NewCluster with telemetry selectable and, when tabs is
// non-nil, the frequency tables and since-fold states given rather than
// allocated (restore passes the decoded ones, so no table is built only
// to be replaced).
// Without telemetry Obs returns nil and the serving paths skip every
// counter and histogram update; that bare cluster exists only as the
// baseline of the telemetry overhead benchmark, so the switch is not part
// of Options.
func newCluster(t *tree.Tree, numObjects int, opts Options, telemetry bool, tabs *freqTables) (*Cluster, error) {
	if numObjects < 0 {
		return nil, fmt.Errorf("serve: negative object count %d", numObjects)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.DriftThreshold > 0 && opts.DriftCheckRequests == 0 {
		if opts.EpochRequests == 0 {
			return nil, fmt.Errorf("%w: DriftThreshold %v with no check cadence (set DriftCheckRequests, or EpochRequests to derive it)", ErrBadOptions, opts.DriftThreshold)
		}
		opts.DriftCheckRequests = max(1, opts.EpochRequests/8)
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	solver, err := core.NewSolver(t, core.Options{MappingRoot: tree.None, Parallelism: opts.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if tabs == nil {
		tabs = &freqTables{
			freq: workload.New(numObjects, t.Len()),
			w:    workload.New(numObjects, t.Len()),
		}
	}
	if tabs.since == nil {
		tabs.since = make([]*dynamic.SinceFold, opts.Shards)
		for i := range tabs.since {
			tabs.since[i] = dynamic.NewSinceFold(numObjects, t.Len(), opts.Shards)
		}
	}
	c := &Cluster{
		t:          t,
		opts:       opts,
		numObjects: numObjects,
		shards:     make([]*shard, opts.Shards),
		fold:       make([]shardFold, opts.Shards),
		solver:     solver,
		freq:       tabs.freq,
		w:          tabs.w,
	}
	if telemetry {
		c.obs = obs.NewRegistry(opts.Shards, flightRecorderSize)
	}
	for i := range c.shards {
		// Threshold validity was checked above, so New cannot fail here.
		c.shards[i] = &shard{
			strat:   dynamic.MustNew(t, numObjects, c.dynOpts()),
			tracker: dynamic.NewOfflineTrackerWith(t, c.freq, tabs.since[i]),
		}
		if c.obs != nil {
			c.shards[i].obsb = c.obs.Shards.Block(i)
		}
	}
	c.isLeaf = make([]bool, t.Len())
	for _, v := range t.Leaves() {
		c.isLeaf[v] = true
	}
	c.scratch.New = func() any {
		sc := &ingestScratch{c: c}
		sc.serve = sc.serveShard // bind once; per-call closures would allocate
		return sc
	}
	return c, nil
}

// dynOpts is the per-shard strategy configuration derived from the
// cluster's options — one place, so serving shards and reconfiguration
// rebuilds cannot diverge.
func (c *Cluster) dynOpts() dynamic.Options {
	return dynamic.Options{
		Threshold:      c.opts.Threshold,
		BandwidthAware: c.opts.BandwidthAware,
		WriteBudget:    c.opts.WriteBudget,
	}
}

// Ingest serves one batch of requests and returns its total service cost.
// Requests are partitioned onto their owner shards, which are served in
// parallel when each worker's share of the batch is at least
// minFanOutShare events and one after another on the calling goroutine
// otherwise; the choice changes only timing, because shards share no
// state. Concurrent Ingest calls are safe (shards serialize internally).
//
// If the batch crosses an epoch boundary (or a drift check that clears
// DriftThreshold), this call starts an epoch pass, and the pass is spread
// over passCalls calls: this one folds the drift and starts the solve,
// every passSpacing-th call after it runs a slice of the rest, and the
// last adopts the solved placement and logs the pass. What a pass folds and solves is fixed by
// the call that starts it, so spreading it changes only when its
// placement is adopted, and that is a fixed number of calls later, never
// a point that depends on timing. A pass whose batch is long next to the
// re-solve cadence runs whole on the call that starts it (see
// inlinePass). While a staged reconfiguration is in flight pass work is
// skipped — the roll itself ends with a full re-solve and adoption, and
// blocking a serving batch behind the whole roll would defeat its stall
// bound; the drift is picked up at the next crossing.
func (c *Cluster) Ingest(batch []Request) (int64, error) {
	total, crossed, driftCheck, err := c.serveGated(batch)
	if err != nil || (!crossed && !driftCheck && !c.inFlight.Load()) {
		return total, err
	}
	if !c.reconfiguring.Load() {
		// Outside the gate: the pass serializes on epochMu alone, so a
		// reconfiguration quiescing the gate never waits on this batch's
		// epoch work (and vice versa — no lock-order cycle).
		err = c.epochWork(len(batch), crossed, driftCheck)
	}
	return total, err
}

// epochWork is the pass work of one Ingest call of n events, observed as
// one EpochStall sample when there was any: the next slice of the pass in
// flight, or a new pass started at a crossing (a cadence pass folds all
// drift anyway, so a coinciding drift check is subsumed) or at a drift
// check that clears DriftThreshold, each completing the pass in flight
// first. A closed cluster runs none.
func (c *Cluster) epochWork(n int, crossed, driftCheck bool) error {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if c.closed.Load() {
		return nil
	}
	c.callNs, c.worked = 0, false
	var err error
	switch {
	case crossed:
		err = c.resolveEpochLocked(TriggerCadence, c.inlinePass(n))
	case driftCheck:
		err = c.driftEpochLocked(c.inlinePass(n))
	case c.pass.calls > 0:
		err = c.slicePassLocked()
	}
	if c.worked && c.obs != nil {
		c.obs.EpochStall.Observe(c.callNs)
	}
	return err
}

// inlinePass reports whether a pass started by a call of n events runs
// whole on that call: when passCalls calls of n events would take more
// than the shortest re-solve cadence (EpochRequests, and
// DriftCheckRequests while the drift trigger is armed), or there is no
// cadence. Long batches thus keep the inline pass, and a sliced pass
// adopts before the next crossing whenever the batches keep their size;
// one that does not is completed by it.
func (c *Cluster) inlinePass(n int) bool {
	cadence := c.opts.EpochRequests
	if d := c.opts.DriftCheckRequests; c.opts.DriftThreshold > 0 && d > 0 && (cadence == 0 || d < cadence) {
		cadence = d
	}
	return cadence == 0 || passCalls*int64(n) > cadence
}

// serveGated validates, partitions and serves one batch under the ingest
// gate's read side. crossed/driftCheck tell Ingest to run the epoch work
// AFTER releasing the gate: nothing that runs under the gate may wait on
// epochMu — crossing detection is pure counter arithmetic.
func (c *Cluster) serveGated(batch []Request) (total int64, crossed, driftCheck bool, err error) {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.closed.Load() {
		return 0, false, false, ErrClosed
	}
	for i := range batch {
		r := &batch[i]
		if r.Object < 0 || r.Object >= c.numObjects {
			return 0, false, false, fmt.Errorf("serve: request %d: object %d out of range [0,%d)", i, r.Object, c.numObjects)
		}
		if r.Node < 0 || int(r.Node) >= len(c.isLeaf) || !c.isLeaf[r.Node] {
			return 0, false, false, fmt.Errorf("serve: request %d: node %d is not a processor", i, r.Node)
		}
	}
	var t0 time.Time
	if c.obs != nil {
		t0 = time.Now()
	}
	sc := c.scratch.Get().(*ingestScratch)
	sc.partition(batch)
	if w := min(par.Workers(c.opts.Parallelism), len(c.shards)); w > 1 && len(batch) >= w*minFanOutShare {
		par.ForEach(w, len(c.shards), sc.serve)
	} else {
		for si := range c.shards {
			sc.serveShard(0, si)
		}
	}
	for _, ct := range sc.costs {
		total += ct
	}
	if sc.aliased {
		sc.buf = nil // aliased the caller's batch; don't retain it in the pool
	}
	c.scratch.Put(sc)
	if c.obs != nil {
		// Two clock reads per batch, amortized over the whole batch; the
		// per-shard counters were booked inside serveShard.
		c.obs.IngestBatch.ObserveSince(t0)
	}
	after := c.served.Add(int64(len(batch)))
	before := after - int64(len(batch))
	e, d := c.opts.EpochRequests, c.opts.DriftCheckRequests
	crossed = e > 0 && before/e != after/e
	driftCheck = c.opts.DriftThreshold > 0 && d > 0 && before/d != after/d
	return total, crossed, driftCheck, nil
}

// ResolveNow forces an epoch pass synchronously (used by benchmarks to
// flush at trace end, and by tests): the pass in flight, if any, is
// completed first, and the new one runs whole.
func (c *Cluster) ResolveNow() error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.resolveEpochLocked(TriggerManual, true)
}

// driftEpochLocked is the drift-triggered path of Ingest (caller holds
// epochMu): it completes the pass in flight, measures the drift
// magnitude, and starts a pass only when the magnitude clears
// DriftThreshold.
func (c *Cluster) driftEpochLocked(inline bool) error {
	if err := c.finishPassLocked(); err != nil {
		return err
	}
	if c.driftMagnitudeLocked() < c.opts.DriftThreshold {
		return nil
	}
	return c.resolveEpochLocked(TriggerDrift, inline)
}

// shardFold is one shard's scratch of the epoch pass: the objects drained
// from its tracker in queue order, and its adoption node buffer and
// movement total. Adoption writes each shard's entry only from the worker
// handling that shard.
type shardFold struct {
	changed []int
	nodes   []tree.NodeID
	moved   int64
}

// objDrift is one drifted object's new request mass and noise-floored L1
// distance, as measured by objectDriftLocked.
type objDrift struct {
	dTot int64
	d    float64
}

// driftMagnitudeLocked measures how far the observed traffic has moved
// since the last adoption (caller holds epochMu): for each object with new
// traffic, the L1 distance between its normalized new-traffic frequency
// vector (its counts since the last fold) and its normalized vector as of
// the last fold (the recorded counts less those) — 0 when the new
// traffic lands exactly where the adopted placement was solved for, 2
// when it lands on entirely different processors (a brand-new object
// counts as 2) — averaged over
// drifted objects weighted by their new request mass, with a per-object
// sampling-noise floor subtracted so thin traffic does not read as drift. Comparing new mass
// against the last-adoption distribution rather than cumulative totals
// keeps a long stable history from diluting a sharp phase shift. Reading
// each shard's rows under its lock without draining the drift queue keeps
// the measurement race-free and the epoch pass's own fold intact.
func (c *Cluster) driftMagnitudeLocked() float64 {
	leaves, buf := c.t.Leaves(), c.lastRows(1)[0]
	var num, den float64
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, x := range sh.tracker.Drifted() {
			row := c.freq.Row(x)
			dTot, d := objectDrift(row, c.lastFold(sh, x, row, buf), leaves)
			num, den = addDrift(num, den, dTot, d)
		}
		sh.mu.Unlock()
	}
	return driftMean(num, den)
}

// lastRows returns c.last with at least n rows of the tree's width, and
// sizes c.zero to it (caller holds epochMu).
func (c *Cluster) lastRows(n int) [][]workload.Access {
	if len(c.last) < n || len(c.last[0]) != c.t.Len() {
		c.last = make([][]workload.Access, max(n, len(c.last)))
		for i := range c.last {
			c.last[i] = make([]workload.Access, c.t.Len())
		}
		c.zero = make([]workload.Access, c.t.Len())
	}
	return c.last
}

// lastFold is object x's row as of its last fold, given its recorded row
// and a scratch row of the tree's width (see dynamic.SinceFold.LastFold),
// with c.zero for the zero row of an object never folded with a count
// (caller holds epochMu and sh.mu, and has sized the rows by lastRows).
func (c *Cluster) lastFold(sh *shard, x int, row, buf []workload.Access) []workload.Access {
	if last := sh.tracker.Since().LastFold(x, row, buf); last != nil {
		return last
	}
	return c.zero
}

// addDrift folds one object's drift into the request-weighted sums of the
// drift magnitude. Objects with no new traffic (queued by a reconfigure
// re-warm) do not count.
func addDrift(num, den float64, dTot int64, d float64) (float64, float64) {
	if dTot <= 0 {
		return num, den
	}
	return num + float64(dTot)*d, den + float64(dTot)
}

// driftMean is the drift magnitude of the weighted sums, 0 with no new
// traffic.
func driftMean(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// objectDrift measures one object's drift from its recorded row and its
// row as of the last fold, last: the new request mass since the last
// fold, and the noise-floored L1 distance between the normalized
// new-traffic vector (row − last) and the normalized vector as of the
// last fold.
func objectDrift(row, last []workload.Access, leaves []tree.NodeID) (dTot int64, d float64) {
	var pTot int64
	for _, v := range leaves {
		cur, old := row[v], last[v]
		dTot += (cur.Reads - old.Reads) + (cur.Writes - old.Writes)
		pTot += old.Reads + old.Writes
	}
	if dTot <= 0 {
		return dTot, 0
	}
	d = 2.0
	if pTot > 0 {
		d = 0
		var support int
		for _, v := range leaves {
			cur, old := row[v], last[v]
			dl := (cur.Reads - old.Reads) + (cur.Writes - old.Writes)
			pl := old.Reads + old.Writes
			if dl == 0 && pl == 0 {
				// Both terms are 0, and adding |0 − 0| = +0.0 leaves d
				// as it is.
				continue
			}
			support++
			d += math.Abs(float64(dl)/float64(dTot) - float64(pl)/float64(pTot))
		}
		// Small-sample correction: two empirical frequency vectors
		// drawn from the SAME distribution still sit at an expected
		// L1 distance of about sqrt(k/n) each (k = support size,
		// n = sample mass), so subtract that noise floor from the
		// raw distance. Without it a handful of requests since the
		// last adoption reads as drift and the trigger fires on
		// sampling noise at every check; a real phase shift moves
		// mass to different processors entirely (raw distance near
		// 2) and clears the corrected threshold easily.
		d -= math.Sqrt(float64(support)/float64(dTot)) + math.Sqrt(float64(support)/float64(pTot))
		if d < 0 {
			d = 0
		}
	}
	return dTot, d
}

// collectDriftLocked drains every shard tracker's drift into the solver
// workload (caller holds epochMu) and returns the drifted objects in
// ascending ID order — aliasing c.changedBuf, valid until the next
// collection — together with the drift magnitude of the drained traffic
// (see driftMagnitudeLocked), measured in the same pass before the fold
// forgets the counts since the last fold.
//
// Every shard lock is taken, in index order, for the drain and the fold.
// The fold splits the ascending list into contiguous chunks over the
// workers, so each worker reads and writes runs of adjacent rows of c.w
// rather than rows interleaved with another worker's (object x belongs
// to shard x % Shards); every object's row is written by exactly one
// worker, and the shards' since-fold states are only read until every
// object is folded. The per-object drift is kept by object ID, and the
// magnitude sums it afterwards in shard order and queue order — the order
// driftMagnitudeLocked uses — so the float result is the same bit for
// bit. Each drifted object's solver row is halved once, then absorbs the
// delta observed since the last fold (frequency' = frequency>>1 + delta),
// so the solver tracks the current phase rather than the all-time
// average. Objects with no new traffic keep their rows, which preserves
// the incremental Resolve contract.
func (c *Cluster) collectDriftLocked() ([]int, float64) {
	if len(c.drifted) != c.numObjects {
		c.drifted = make([]bool, c.numObjects)
		c.drift = make([]objDrift, c.numObjects)
	}
	for si, sh := range c.shards {
		sh.mu.Lock()
		f := &c.fold[si]
		f.changed = sh.tracker.DrainDrifted(f.changed[:0])
		for _, x := range f.changed {
			c.drifted[x] = true
		}
	}
	defer func() {
		for _, sh := range c.shards {
			sh.mu.Unlock()
		}
	}()
	changed := c.changedBuf[:0]
	for x, d := range c.drifted {
		if d {
			changed = append(changed, x)
			c.drifted[x] = false
		}
	}
	c.changedBuf = changed
	c.lastRows(par.Workers(c.opts.Parallelism))
	par.ForEach(c.opts.Parallelism, len(changed), c.foldObject)
	for si, sh := range c.shards {
		sh.tracker.Since().Forget(c.fold[si].changed, c.freq)
	}
	var num, den float64
	for i := range c.fold {
		for _, x := range c.fold[i].changed {
			num, den = addDrift(num, den, c.drift[x].dTot, c.drift[x].d)
		}
	}
	return changed, driftMean(num, den)
}

// foldObject is collectDriftLocked's body for the i-th object of
// c.changedBuf, on the worker's last-fold row (caller holds epochMu and
// every shard lock).
func (c *Cluster) foldObject(worker, i int) {
	x := c.changedBuf[i]
	leaves := c.t.Leaves()
	row := c.freq.Row(x)
	last := c.lastFold(c.shards[x%len(c.shards)], x, row, c.last[worker])
	dTot, d := objectDrift(row, last, leaves)
	c.drift[x] = objDrift{dTot, d}
	solved := c.w.Row(x)
	for _, v := range leaves {
		cur, old, was := row[v], last[v], solved[v]
		a := workload.Access{
			Reads:  was.Reads>>1 + cur.Reads - old.Reads,
			Writes: was.Writes>>1 + cur.Writes - old.Writes,
		}
		if a.Reads < 0 || a.Writes < 0 {
			panic("serve: negative folded frequency")
		}
		solved[v] = a
	}
}

// epochPass is the epoch pass in flight (guarded by epochMu): folded on
// the call that started it, solved over the calls after it and adopted
// on its last (see passSlices).
type epochPass struct {
	// calls counts the calls of the pass so far, the one that started it
	// included; 0 means no pass is in flight.
	calls int
	// res is the solved placement, once the solver has finished.
	res *core.Result
	// rec holds the EpochStat fields the fold fixed: Requests, Drifted,
	// Trigger and DriftMagnitude.
	rec EpochStat
	// ns is the wall time of the pass's slices so far.
	ns int64
}

// resolveEpochLocked is the epoch pass (caller holds epochMu): it
// completes the pass in flight, then folds the drift into the solver
// workload and starts a new pass, which runs whole when inline is set and
// is otherwise left to the next calls.
func (c *Cluster) resolveEpochLocked(trigger string, inline bool) error {
	if err := c.finishPassLocked(); err != nil {
		return err
	}
	if err := c.startPassLocked(trigger); err != nil || !inline {
		return err
	}
	return c.finishPassLocked()
}

// startPassLocked runs the first call's share of a pass: the fold, and
// the first half of Steps 1–2 (the first pass, with no solver armed yet,
// runs its whole Solve here). A fold that finds nothing drifted on an
// armed solver starts no pass.
func (c *Cluster) startPassLocked(trigger string) error {
	t0 := time.Now()
	startReqs := c.served.Load() // snapshot: ingestion continues during the pass

	// The drift magnitude is measured by the fold itself, before it
	// forgets the counts since the last fold — this is the drift the pass
	// is reacting to, recorded for every pass so cadence and
	// drift-triggered epochs are comparable in the log.
	changed, driftMag := c.collectDriftLocked()
	if len(changed) == 0 && c.solved {
		return nil
	}
	c.pass = epochPass{calls: 1, rec: EpochStat{
		Requests:       startReqs,
		Drifted:        len(changed),
		Trigger:        trigger,
		DriftMagnitude: driftMag,
	}}
	c.inFlight.Store(true)
	c.hook("fold", len(changed))
	var err error
	if c.solved {
		err = c.solver.BeginResolve(changed)
	}
	if !c.solved || err != nil {
		// The first pass, or a change list the solver refused: a full
		// Solve, which is always valid.
		err = c.solveLocked()
	} else {
		_, left := c.solver.Stage()
		err = c.stepLocked((left + 1) / 2)
	}
	return c.sliceDone(t0, err)
}

// slicePassLocked runs the next call's share of the pass in flight: on
// every passSpacing-th call a slice — the second slice finishes Steps
// 1–2 and runs Step 3, the ones after it finish the solve, and the last
// adopts — and nothing on the calls between. A pass whose solve is done
// (the first pass, a restored one, one that fell back to a full Solve)
// has nothing to run until its adoption.
func (c *Cluster) slicePassLocked() error {
	c.pass.calls++
	if c.pass.calls == passCalls {
		return c.adoptLocked(time.Now())
	}
	if (c.pass.calls-1)%passSpacing != 0 || c.pass.res != nil {
		return nil
	}
	t0 := time.Now()
	target := core.StageDone
	if c.pass.calls-1 == passSpacing {
		target = core.StageFinish
	}
	return c.sliceDone(t0, c.solveUntilLocked(target))
}

// finishPassLocked runs every remaining slice of the pass in flight, if
// any, adopting it now.
func (c *Cluster) finishPassLocked() error {
	for c.pass.calls > 0 {
		if err := c.slicePassLocked(); err != nil {
			return err
		}
	}
	return nil
}

// sliceDone books the slice that started at t0 to the pass and to the
// call, and drops the pass when the slice failed.
func (c *Cluster) sliceDone(t0 time.Time, err error) error {
	d := time.Since(t0).Nanoseconds()
	c.pass.ns += d
	c.callNs += d
	c.worked = true
	if err != nil {
		c.dropPassLocked()
	}
	return err
}

// dropPassLocked forgets the pass in flight without adopting it.
func (c *Cluster) dropPassLocked() {
	c.pass = epochPass{}
	c.inFlight.Store(false)
}

// hook reports a piece of pass work to passHook.
func (c *Cluster) hook(stage string, objects int) {
	if c.passHook != nil {
		c.passHook(c.pass.calls-1, stage, objects)
	}
}

// solveLocked solves the pass's workload from scratch: the first pass,
// and the fallback after a failed re-solve.
func (c *Cluster) solveLocked() error {
	c.hook("solve", c.numObjects)
	res, err := c.solver.Solve(c.w)
	if err != nil {
		c.solved = false
		return fmt.Errorf("serve: epoch re-solve: %w", err)
	}
	c.solved = true
	c.pass.res = res
	return nil
}

// stepLocked runs n objects (or the whole of a global stage) of the
// pass's re-solve; a failed step falls back to a full Solve.
func (c *Cluster) stepLocked(n int) error {
	st, left := c.solver.Stage()
	c.hook(st.String(), min(n, left))
	res, err := c.solver.Step(n)
	if err != nil {
		return c.solveLocked()
	}
	if res != nil {
		c.pass.res = res
	}
	return nil
}

// solveUntilLocked steps the pass's re-solve until the solver reaches
// stage target, or until it is solved when target is core.StageDone.
func (c *Cluster) solveUntilLocked(target core.Stage) error {
	for c.pass.res == nil {
		st, left := c.solver.Stage()
		if st >= target && st != core.StageDone {
			return nil
		}
		if err := c.stepLocked(left); err != nil {
			return err
		}
	}
	return nil
}

// adoptLocked is the last call's share of the pass in flight, started at
// t0: every object with demand moves to its freshly solved placement, and
// the pass is logged. Unchanged objects whose dynamic state drifted
// (writes contract copy sets) are re-warmed too; identical sets are
// no-ops. Shards adopt in parallel, each under its own lock into its own
// strategy; integer movement totals sum exactly in any order.
func (c *Cluster) adoptLocked(t0 time.Time) error {
	if err := c.solveUntilLocked(core.StageDone); err != nil {
		return c.sliceDone(t0, err)
	}
	res := c.pass.res
	c.hook("adopt", c.numObjects)
	par.ForEach(c.opts.Parallelism, len(c.shards), func(_, si int) {
		c.adoptShard(si, res)
	})
	var moved int64
	for i := range c.fold {
		moved += c.fold[i].moved
	}
	rec := c.pass.rec
	rec.Moved = moved
	rec.StaticCongestion = res.Report.Congestion.Float()
	rec.MaxEdgeLoad = c.maxEdgeLoadLocked()
	c.sliceDone(t0, nil)
	rec.ResolveNs = c.pass.ns
	c.dropPassLocked()

	c.stats.Epochs++
	rec.Epoch = c.stats.Epochs
	if rec.Trigger == TriggerDrift {
		c.stats.DriftEpochs++
	}
	c.stats.Drifted += int64(rec.Drifted)
	c.stats.AdoptMoved += moved
	c.stats.ResolveTime += time.Duration(rec.ResolveNs)
	c.epochLog = append(c.epochLog, rec)
	if o := c.obs; o != nil {
		o.EpochPass.Observe(rec.ResolveNs)
		o.Flight.Record(obs.EvEpoch, -1, triggerCode(rec.Trigger), int64(rec.Drifted), moved)
		if rec.Trigger == TriggerDrift {
			o.Global.Add(obs.SlotDriftFires, 1)
			o.Flight.Record(obs.EvDrift, -1,
				int64(rec.DriftMagnitude*1000), int64(c.opts.DriftThreshold*1000), 0)
		}
	}
	return nil
}

// adoptShard installs the solved copy sets of shard si's objects into its
// strategy and records the shard's movement total.
func (c *Cluster) adoptShard(si int, res *core.Result) {
	sh, f := c.shards[si], &c.fold[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f.moved = 0
	for x := si; x < c.numObjects; x += len(c.shards) {
		cs := res.Final.Copies[x]
		if len(cs) == 0 {
			continue
		}
		nodes := f.nodes[:0]
		for _, cp := range cs {
			nodes = append(nodes, cp.Node)
		}
		f.nodes = nodes
		f.moved += sh.strat.AdoptCopySet(x, nodes)
	}
}

// triggerCode maps an EpochStat trigger label to the integer carried in
// flight-recorder events.
func triggerCode(trigger string) int64 {
	switch trigger {
	case TriggerCadence:
		return 1
	case TriggerDrift:
		return 2
	default:
		return 3 // manual / reconfiguration
	}
}

// Close marks the cluster closed: Ingest, ResolveNow and Reconfigure then
// fail with ErrClosed, while accessors and Snapshot stay usable. An epoch
// pass in flight is dropped without adopting it: no call is left to
// adopt on, and a snapshot cut before Close carries it (see Snapshot).
// Every epoch pass runs on Ingest calls, so there is nothing to stop or
// drain and Close always returns nil; the error result keeps Cluster an
// io.Closer.
func (c *Cluster) Close() error {
	c.closed.Store(true)
	c.epochMu.Lock()
	c.dropPassLocked()
	c.epochMu.Unlock()
	return nil
}

// EdgeLoad returns the aggregate per-edge load (request service plus
// threshold-driven copy movement) summed over all shards, indexed by the
// current topology's edge IDs.
func (c *Cluster) EdgeLoad() []int64 {
	// The read lock pins the topology generation: Reconfigure publishes
	// and commits its roll under the write side, and mid-roll the fold
	// projects un-migrated shards forward (see foldLoadsLocked), so the
	// edge count and every shard's contribution are mutually consistent.
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	return c.edgeLoadLocked()
}

// edgeLoadLocked is EdgeLoad for callers that already exclude a
// concurrent topology swap (holding closeMu in either mode, or epochMu).
func (c *Cluster) edgeLoadLocked() []int64 {
	return c.foldLoadsLocked(func(sh *shard) []int64 { return sh.strat.EdgeLoad })
}

// foldLoadsLocked sums a per-shard load vector over all shards. While a
// staged reconfiguration is mid-swap the shards straddle two ID spaces;
// the fold reports in the NEW tree's edge space — already-migrated
// shards add directly, the rest project forward through the roll's remap
// (loads sitting on doomed switches are omitted from the view, exactly
// as they will be dropped when their shard migrates).
func (c *Cluster) foldLoadsLocked(loads func(*shard) []int64) []int64 {
	roll := c.roll
	n := c.t.NumEdges()
	if roll != nil {
		n = roll.newTree.NumEdges()
	}
	out := make([]int64, n)
	for _, sh := range c.shards {
		sh.mu.Lock()
		if roll != nil && !sh.onNew {
			for e, l := range loads(sh) {
				if ne := roll.remap.Edge[e]; ne != tree.NoEdge {
					out[ne] += l
				}
			}
		} else {
			for e, l := range loads(sh) {
				out[e] += l
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// ServiceLoad returns the aggregate per-edge service load (excluding all
// copy movement) summed over all shards.
func (c *Cluster) ServiceLoad() []int64 {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	return c.foldLoadsLocked(func(sh *shard) []int64 { return sh.strat.ServiceLoad() })
}

// MaxEdgeLoad returns the maximum aggregate edge load.
func (c *Cluster) MaxEdgeLoad() int64 {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	return c.maxEdgeLoadLocked()
}

func (c *Cluster) maxEdgeLoadLocked() int64 {
	var m int64
	for _, l := range c.edgeLoadLocked() {
		if l > m {
			m = l
		}
	}
	return m
}

// TotalLoad returns the sum of all aggregate edge loads.
func (c *Cluster) TotalLoad() int64 {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	var m int64
	for _, l := range c.edgeLoadLocked() {
		m += l
	}
	return m
}

// Tree returns the cluster's current network. After a Reconfigure this is
// the post-diff tree; while a staged reconfiguration is mid-swap it is
// the NEW tree, so (Tree, EdgeLoad) stay mutually consistent at every
// instant (Ingest addressing stays old-ID until the roll commits). The
// returned value is immutable and remains valid (as a snapshot of that
// topology generation) across later reconfigures.
func (c *Cluster) Tree() *tree.Tree {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.roll != nil {
		return c.roll.newTree
	}
	return c.t
}

// Copies returns the current copy nodes of object x (sorted), from its
// owner shard.
func (c *Cluster) Copies(x int) []tree.NodeID {
	if x < 0 || x >= c.numObjects {
		panic(fmt.Sprintf("serve: object %d out of range", x))
	}
	sh := c.shards[x%len(c.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.strat.Copies(x)
}

// Stats returns a point-in-time summary. Requests and ServiceCost are
// exact once all concurrent Ingest calls have returned.
func (c *Cluster) Stats() Stats {
	c.epochMu.Lock()
	st := c.stats
	c.epochMu.Unlock()
	var served, cost int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		served += sh.strat.Requests()
		cost += sh.cost
		sh.mu.Unlock()
	}
	st.Requests = served
	st.ServiceCost = cost
	return st
}

// EpochLog returns a copy of the per-epoch records.
func (c *Cluster) EpochLog() []EpochStat {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	out := make([]EpochStat, len(c.epochLog))
	copy(out, c.epochLog)
	return out
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// NumObjects returns the number of objects the cluster serves (after a
// Restore, the count the image carried).
func (c *Cluster) NumObjects() int { return c.numObjects }

// Obs returns the cluster's telemetry registry (nil only for the bare
// baseline cluster of the telemetry overhead benchmark). The registry is
// live: counters and histograms may be read at any time (they are exact once all concurrent
// Ingest calls have returned, like Stats), and the per-shard event/cost
// counters reconcile exactly with Stats' conservation ledger at
// quiescence — the chaos harness asserts that equality after every run.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// OpCounts merges the structural decision counters (replications,
// contractions, materializations, adoptions) of all shard strategies.
func (c *Cluster) OpCounts() dynamic.OpCounts {
	var t dynamic.OpCounts
	for _, sh := range c.shards {
		sh.mu.Lock()
		t.Add(sh.strat.Ops())
		sh.mu.Unlock()
	}
	return t
}
