// Package dynamic implements an online data management strategy for tree
// networks in the spirit of the dynamic strategies of [10] (Maggs et al.,
// "Exploiting locality for networks of limited bandwidth"), which the
// paper's related-work section reports to be 3-competitive on trees. This
// is the extension experiment (E11): the paper itself only treats the
// static problem; the dynamic strategy shows what the same machinery does
// when frequencies are unknown.
//
// Model: requests arrive one at a time; the strategy maintains a connected
// copy set per object and pays, per request, one unit of load on every
// edge a message crosses (read: requester→nearest copy; write:
// requester→nearest copy plus the update Steiner tree of the copy set),
// and one unit per edge crossed by a copy movement (replication or
// deletion does not move data backwards, only replication costs). The
// adaptation rule is counter-based: an edge replicates the object across
// itself after Threshold reads crossed it since the last write, and the
// copy set contracts towards the writer after each write — the classic
// read-replicate / write-invalidate dynamics.
//
// The serving path is engineered for throughput around one structural
// fact: a request-driven copy set is a connected subtree at all times
// (the paper's Theorem 3.1 structure, preserved by the
// replicate-towards-the-reader rule). Connectivity makes both expensive
// per-request recomputations incremental:
//
//   - Nearest-copy resolution is table-free. The copy subtree hangs
//     entirely below its minimum-depth member (anchorTop), so the unique
//     nearest copy is found in O(distance): requesters inside the
//     anchor's subtree (an O(1) preorder-interval test) ascend to the
//     first copy, requesters outside enter exactly at the anchor. Writes
//     therefore contract the set in O(1) — no O(|V|) BFS per write — and
//     the multi-source nearest tables survive only for adopted static
//     placements (AdoptCopySet) that are not connected.
//   - The write-broadcast Steiner tree is an incrementally maintained
//     edge list: for a connected set the Steiner edges are exactly the
//     edges joining two copies, so replication appends one edge,
//     contraction resets the list, and only AdoptCopySet rebuilds from
//     scratch. A write costs O(|Steiner edges|), not an O(|V|) pass.
//
// Read counters reset by generation stamp (packed with their counts into
// one word), all per-request buffers are reused, and ServeBatch is the
// batched entry point: it validates the whole batch up front, then serves
// it request by request in input order, exactly like the Serve loop. The
// tradeoff is memory: each touched object keeps O(|V|) copy bits, plus
// O(|E|) read counters and broadcast stamps once it sees remote reads or
// replicates (and O(|V|) nearest tables only if it is ever adopted).
package dynamic

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"hbn/internal/nibble"
	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Request is one online access. It aliases workload.TraceEvent, the
// canonical trace event type the scenario generators produce, so traces
// flow into Serve (and the serving layer's Cluster.Ingest) without
// conversion.
type Request = workload.TraceEvent

// ErrBadOptions reports an invalid Options value, matched with errors.Is
// through the wrapped error New returns. Rejecting instead of coercing is
// deliberate: a threshold of 0 is always a caller bug (it would replicate
// before the first read is even counted), and silently serving with a
// different threshold than configured makes every downstream congestion
// number a lie.
var ErrBadOptions = errors.New("dynamic: invalid options")

// Options tune the strategy.
type Options struct {
	// Threshold is the number of reads that must cross an edge (since the
	// last write) before the object is replicated across it. 1 replicates
	// eagerly. Must be >= 1; New rejects anything else with ErrBadOptions.
	Threshold int
	// BandwidthAware scales each edge's crossing budget by its bandwidth:
	// edge e replicates after max(1, Threshold·bw(e)/maxBw) reads, where
	// maxBw is the tree's largest switch bandwidth. The congestion a read
	// crossing costs on e is 1/bw(e), so cheap low-bandwidth switches — the
	// processor links, and any uplink a brownout has degraded — exhaust
	// their budget sooner and replicate earlier, while the fattest switches
	// keep the full hop budget. With uniform edge bandwidths every budget
	// is exactly Threshold and serving is bit-identical to the flat
	// hop-threshold strategy (property-tested). False keeps the flat
	// threshold on every edge.
	BandwidthAware bool
	// WriteBudget is the number of consecutive writes — with no read of the
	// object in between — a multi-copy set absorbs (each one a broadcast
	// over its Steiner edges) before it contracts to a single copy near the
	// writer. It is the deletion-side dual of Threshold: replicas are
	// created after Threshold read crossings and destroyed only after
	// WriteBudget uninterrupted writes, so an object whose replicas still
	// serve reads keeps them and pays the same broadcast a static placement
	// would, while a write-dominated object collapses onto its writer and
	// then writes for free. 0 and 1 both contract on every write — the
	// strategy's behavior before the budget existed, and still the default:
	// lazy contraction is an explicit opt-in (Threshold is the natural
	// setting, making destruction as reluctant as creation). Negative
	// values are rejected with ErrBadOptions.
	WriteBudget int
}

// writeBudget is the effective contraction budget (see WriteBudget).
func (o Options) writeBudget() uint32 {
	if o.WriteBudget > 1 {
		return uint32(o.WriteBudget)
	}
	return 1
}

// validate rejects option values that would silently change serving
// semantics if coerced.
func (o Options) validate() error {
	if o.Threshold < 1 {
		return fmt.Errorf("%w: Threshold %d, want >= 1", ErrBadOptions, o.Threshold)
	}
	if o.WriteBudget < 0 {
		return fmt.Errorf("%w: WriteBudget %d, want >= 0 (0 and 1 contract eagerly)", ErrBadOptions, o.WriteBudget)
	}
	return nil
}

// edgeBudgets computes the per-edge replication thresholds for t under o:
// the flat Threshold everywhere, or the bandwidth-scaled budget when
// BandwidthAware is set. The lane is shared by all objects (a threshold is
// a property of the switch, not of the object crossing it), so the packed
// per-object counter words stay one word per (object, edge).
func edgeBudgets(t *tree.Tree, o Options) []int32 {
	out := make([]int32, t.NumEdges())
	if !o.BandwidthAware {
		for e := range out {
			out[e] = int32(o.Threshold)
		}
		return out
	}
	var maxBw int64 = 1
	for e := 0; e < t.NumEdges(); e++ {
		if bw := t.EdgeBandwidth(tree.EdgeID(e)); bw > maxBw {
			maxBw = bw
		}
	}
	for e := range out {
		b := int64(o.Threshold) * t.EdgeBandwidth(tree.EdgeID(e)) / maxBw
		if b < 1 {
			b = 1
		}
		out[e] = int32(b)
	}
	return out
}

// Strategy is the online state.
type Strategy struct {
	t    *tree.Tree
	r    *tree.Rooted
	opts Options

	// edgeThresh is the per-edge crossing budget (the threshold lane): the
	// read counter packed in readCW replicates across edge e once it
	// reaches edgeThresh[e]. Computed once in New (see edgeBudgets) and
	// shared by every object, so the hot-path threshold test stays a
	// single indexed load with no per-object memory cost.
	edgeThresh []int32
	// wBudget/wStreak are the contraction side of the same rent-to-buy
	// dynamics: wStreak[x] counts consecutive writes of x with no
	// intervening read, and a multi-copy set contracts only when the
	// streak reaches wBudget (see Options.WriteBudget). Any read resets
	// the streak.
	wBudget uint32
	wStreak []uint32

	// pos/subEnd are the shared preorder positions and per-node subtree
	// end positions (preorder subtrees are contiguous intervals), so "is
	// node inside anchorTop's subtree" is two compares per request.
	pos    []int32
	subEnd []int32

	// Per-object copy-set state. isCopy/copyList are allocated lazily at
	// the object's first touch.
	isCopy   [][]bool
	copyList [][]tree.NodeID
	// nearest/ndist are per-node nearest-copy tables — but they exist only
	// for adopted sets that are not connected (tableValid on), and each
	// equals a rebuild from the object's copy list (see installTables).
	// Request-driven copy sets are always connected subtrees
	// grown from the last contraction home, and for a connected set the
	// nearest copy from any node is the unique entry point of the node's
	// path towards ANY member — so serving resolves it via anchorTop (see
	// pathToNearest and serveRead) and never builds, rebuilds or relaxes a
	// table. This is what keeps writes (contraction) and replication
	// O(path) instead of O(|V|) BFS. Objects never adopted never allocate
	// the tables.
	nearest    [][]tree.NodeID
	ndist      [][]int32
	tableValid []bool
	// readCW packs each edge's read counter with its generation stamp
	// (gen<<32 | count) so the hot counter test costs one memory access;
	// a count is valid only while its stamp matches curGen.
	readCW [][]uint64
	// anchorTop is the minimum-depth copy of each connected-mode object.
	// The whole copy subtree hangs below it, so nearest resolution is an
	// ascending walk for requesters inside its subtree and lands exactly
	// on anchorTop for requesters outside (see pathToNearest). Maintained
	// by materialize/contract (the home) and addCopy (a depth compare);
	// meaningless while tableValid.
	anchorTop []tree.NodeID
	curGen    []uint32
	pathBuf   []tree.EdgeID
	steinerCt []int32
	queue     []tree.NodeID
	adoptDist []int32       // AdoptCopySet pricing scratch
	adoptList []tree.NodeID // AdoptCopySet's new list, built before it replaces the old

	// Write-broadcast state: bcast holds the Steiner edges of the copy
	// set, maintained incrementally (see the package comment). bcastStamp
	// marks membership (valid when the stamp matches bcastGen) so the
	// replication append is O(1) and duplicate-free even for adopted
	// non-connected sets; it is allocated lazily at the first incremental
	// append, so a set that was only ever rebuilt whole (restore,
	// adoption) has none.
	bcast      [][]tree.EdgeID
	bcastStamp [][]uint32
	bcastGen   []uint32

	// lastBatch is the batch ServeBatch served last, for GroupedBatch.
	lastBatch []Request

	// EdgeLoad accumulates all message and copy-movement traffic.
	EdgeLoad []int64
	// moveLoad accumulates only copy-movement traffic (replication and
	// migration transfers), so the hot serving loops touch one load array
	// and the service-only view is derived (see ServiceLoad).
	moveLoad []int64
	requests int

	// ops counts structural copy-set decisions. Plain increments: the
	// strategy is single-writer (the owning shard's lock serializes all
	// mutation), and readers take the same lock via the serving layer.
	ops OpCounts
}

// OpCounts are cumulative counts of the strategy's structural decisions,
// for telemetry: how often the rent-to-buy dynamics replicate, contract,
// materialize a first copy, or adopt an epoch placement.
type OpCounts struct {
	Replications     int64 // copy-set expansions across an edge
	Contractions     int64 // write-streak contractions to a single copy
	Materializations int64 // first-copy placements
	Adoptions        int64 // epoch placements adopted (set actually changed)
}

// Add accumulates o into c.
func (c *OpCounts) Add(o OpCounts) {
	c.Replications += o.Replications
	c.Contractions += o.Contractions
	c.Materializations += o.Materializations
	c.Adoptions += o.Adoptions
}

// Ops returns the strategy's structural decision counts. Callers must
// hold whatever lock serializes Serve calls (in the serving layer, the
// shard lock).
func (s *Strategy) Ops() OpCounts { return s.ops }

// ImportOps seeds the decision counters from a predecessor strategy —
// the telemetry continuity companion of ImportLoads, used when a
// reconfiguration rebuilds a shard on a new tree.
func (s *Strategy) ImportOps(o OpCounts) { s.ops.Add(o) }

// New creates a strategy with no copies; each object materializes at its
// first requester. It returns an error wrapping ErrBadOptions when opts is
// invalid (Threshold < 1).
func New(t *tree.Tree, numObjects int, opts Options) (*Strategy, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := t.Rooted0()
	steps := r.Steps()
	subEnd := make([]int32, t.Len())
	for i := len(steps) - 1; i >= 1; i-- {
		st := steps[i]
		if subEnd[st.V] < int32(i)+1 {
			subEnd[st.V] = int32(i) + 1
		}
		if subEnd[st.Parent] < subEnd[st.V] {
			subEnd[st.Parent] = subEnd[st.V]
		}
	}
	if len(subEnd) > 0 {
		subEnd[r.Root] = int32(len(steps))
	}
	return &Strategy{
		t:          t,
		r:          r,
		pos:        r.Pos(),
		subEnd:     subEnd,
		opts:       opts,
		edgeThresh: edgeBudgets(t, opts),
		wBudget:    opts.writeBudget(),
		wStreak:    make([]uint32, numObjects),
		isCopy:     make([][]bool, numObjects),
		copyList:   make([][]tree.NodeID, numObjects),
		nearest:    make([][]tree.NodeID, numObjects),
		ndist:      make([][]int32, numObjects),
		tableValid: make([]bool, numObjects),
		anchorTop:  make([]tree.NodeID, numObjects),
		readCW:     make([][]uint64, numObjects),
		curGen:     make([]uint32, numObjects),
		bcast:      make([][]tree.EdgeID, numObjects),
		bcastStamp: make([][]uint32, numObjects),
		bcastGen:   make([]uint32, numObjects),
		steinerCt:  make([]int32, t.Len()),
		EdgeLoad:   make([]int64, t.NumEdges()),
		moveLoad:   make([]int64, t.NumEdges()),
	}, nil
}

// MustNew is New for callers whose options are known valid (tests, and
// layers that validated the same fields already); it panics on error.
func MustNew(t *tree.Tree, numObjects int, opts Options) *Strategy {
	s, err := New(t, numObjects, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Requests returns the number of requests served so far.
func (s *Strategy) Requests() int64 { return int64(s.requests) }

// ServiceLoad returns the per-edge service-only loads (excluding all copy
// movement), for comparability with static placements evaluated on the
// same sequence. Derived as EdgeLoad minus the movement account, freshly
// allocated per call.
func (s *Strategy) ServiceLoad() []int64 {
	out := make([]int64, len(s.EdgeLoad))
	for e, l := range s.EdgeLoad {
		out[e] = l - s.moveLoad[e]
	}
	return out
}

// MoveLoad returns the per-edge copy-movement loads (the movement
// account ServiceLoad subtracts). Like EdgeLoad, the slice is the
// strategy's own: read it under the lock that serializes serving, and do
// not modify it.
func (s *Strategy) MoveLoad() []int64 { return s.moveLoad }

// ImportLoads seeds the strategy's per-edge load accounts and its served
// request counter from a predecessor — the serving layer's topology
// reconfiguration rebuilds each shard's strategy on the new tree and
// carries the surviving edges' accumulated history across with this, so
// load totals and request counts are conserved through a reconfigure.
// Both vectors must have one entry per edge of the strategy's tree;
// moveLoad entries must not exceed their edgeLoad counterparts.
func (s *Strategy) ImportLoads(edgeLoad, moveLoad []int64, requests int64) {
	if len(edgeLoad) != len(s.EdgeLoad) || len(moveLoad) != len(s.moveLoad) {
		panic(fmt.Sprintf("dynamic: ImportLoads got %d/%d entries for %d edges",
			len(edgeLoad), len(moveLoad), len(s.EdgeLoad)))
	}
	for e := range edgeLoad {
		s.EdgeLoad[e] += edgeLoad[e]
		s.moveLoad[e] += moveLoad[e]
	}
	s.requests += int(requests)
}

// NumObjects returns the object-space size the strategy was built for.
func (s *Strategy) NumObjects() int { return len(s.isCopy) }

// Copies returns the current copy nodes of object x (sorted).
func (s *Strategy) Copies(x int) []tree.NodeID {
	if len(s.copyList[x]) == 0 {
		return nil
	}
	out := slices.Clone(s.copyList[x])
	slices.Sort(out)
	return out
}

// Serve processes one request and returns the service cost (edges
// crossed for the request itself, not copy movement).
func (s *Strategy) Serve(r Request) int64 {
	if r.Object < 0 || r.Object >= len(s.isCopy) {
		panic(fmt.Sprintf("dynamic: object %d out of range", r.Object))
	}
	s.requests++
	x := r.Object
	if len(s.copyList[x]) == 0 {
		// First touch: materialize at the requester for free (the object
		// is created there).
		s.materialize(x, r.Node)
		return 0
	}
	if r.Write {
		return s.serveWrite(x, r.Node)
	}
	return s.serveRead(x, r.Node)
}

// pathToNearest resolves the copy of object x nearest to node together
// with the request path to it (edges in order from node), reusing the
// strategy's path buffer. Adopted sets answer from the nearest tables. A
// connected (request-driven) set hangs entirely below its minimum-depth
// copy anchorTop, so for a connected set the unique nearest copy is found
// in O(distance to it): a requester inside anchorTop's subtree ascends
// until the first copy (the subtree entry point), a requester outside
// enters the subtree exactly at anchorTop.
func (s *Strategy) pathToNearest(x int, node tree.NodeID) (tree.NodeID, []tree.EdgeID) {
	if s.isCopy[x][node] {
		return node, s.pathBuf[:0]
	}
	if s.tableValid[x] {
		target := s.nearest[x][node]
		path := s.r.AppendPath(s.pathBuf[:0], node, target)
		s.pathBuf = path
		return target, path
	}
	top := s.anchorTop[x]
	if p := s.pos[node]; p >= s.pos[top] && p < s.subEnd[top] {
		// node is below the anchor: ascend to the entry point.
		path := s.pathBuf[:0]
		cur := node
		for !s.isCopy[x][cur] {
			path = append(path, s.r.ParentEdge[cur])
			cur = s.r.Parent[cur]
		}
		s.pathBuf = path
		return cur, path
	}
	path := s.r.AppendPath(s.pathBuf[:0], node, top)
	s.pathBuf = path
	return top, path
}

// serveRead is the read path for one request from node (the copy set must
// be non-empty): pay one unit on every edge towards the nearest copy,
// count the read on the copy-side edge and replicate across saturated
// edges, walking from the copy set towards the requester so the set stays
// connected. The connected-mode variants charge the loads during the
// resolution walk itself — no path buffer is built; the (at most
// 1-in-Threshold) crossing rebuilds the path for the replication cascade.
func (s *Strategy) serveRead(x int, node tree.NodeID) int64 {
	s.wStreak[x] = 0 // reads keep the replica set alive
	if s.isCopy[x][node] {
		return 0 // local read
	}
	var (
		target tree.NodeID
		last   tree.EdgeID
		cost   int64
	)
	if s.tableValid[x] {
		// Adopted mode: resolve from the tables, charge from the buffer.
		target = s.nearest[x][node]
		path := s.r.AppendPath(s.pathBuf[:0], node, target)
		s.pathBuf = path
		for _, e := range path {
			s.EdgeLoad[e]++
		}
		cost = int64(len(path))
		last = path[len(path)-1]
	} else if top := s.anchorTop[x]; s.pos[node] >= s.pos[top] && s.pos[node] < s.subEnd[top] {
		// Below the anchor: ascend to the entry point, charging as we go.
		// (Slice headers hoisted: the load stores would otherwise force
		// re-reads of the orientation arrays on every step.)
		ic, par, pe, el := s.isCopy[x], s.r.Parent, s.r.ParentEdge, s.EdgeLoad
		cur := node
		for {
			e := pe[cur]
			el[e]++
			cost++
			cur = par[cur]
			if ic[cur] {
				target, last = cur, e
				break
			}
		}
	} else {
		// Outside the anchor's subtree: the entry point is the anchor
		// itself; charge both ascents, interleaved by depth until they
		// meet (no LCA query needed).
		par, pe, el, dep := s.r.Parent, s.r.ParentEdge, s.EdgeLoad, s.r.Depth
		u, v := node, top
		for u != v {
			var e tree.EdgeID
			if dep[u] >= dep[v] {
				e = pe[u]
				u = par[u]
			} else {
				e = pe[v]
				v = par[v]
			}
			el[e]++
			cost++
		}
		target, last = top, pe[top]
	}
	// Count the read on the copy-side edge (one combined load-and-store on
	// the packed counter word); saturation replicates across it and
	// cascades towards the requester.
	cw := s.readCW[x]
	if cw == nil {
		cw = make([]uint64, s.t.NumEdges())
		s.readCW[x] = cw
	}
	gen := s.curGen[x]
	var c int32
	if w := cw[last]; uint32(w>>32) == gen {
		c = int32(uint32(w))
	}
	c++
	cw[last] = uint64(gen)<<32 | uint64(uint32(c))
	if c < s.edgeThresh[last] {
		return cost
	}
	s.replicateAcross(x, last)
	path := s.r.AppendPath(s.pathBuf[:0], node, target)
	s.pathBuf = path
	for i := len(path) - 2; i >= 0; i-- {
		e := path[i]
		cc := s.readCount(x, e) + 1
		s.setReadCount(x, e, cc)
		if cc < s.edgeThresh[e] {
			break
		}
		s.replicateAcross(x, e)
	}
	return cost
}

// replicateAcross joins the non-copy endpoint of e to object x's copy set
// (one copy transfer on e) and resets e's read counter.
func (s *Strategy) replicateAcross(x int, e tree.EdgeID) {
	u, v := s.t.Endpoints(e)
	joiner := u
	if s.isCopy[x][u] {
		joiner = v
	}
	s.addCopy(x, joiner, e)
	s.EdgeLoad[e]++ // copy transfer
	s.moveLoad[e]++
	s.setReadCount(x, e, 0)
	s.ops.Replications++
}

// serveWrite is the write path for one request from node (the copy set
// must be non-empty): pay the path to the nearest copy and broadcast the
// update over the copy set's Steiner edges. A multi-copy set contracts
// only when the object's uninterrupted write streak reaches the write
// budget — replicas that still serve reads are worth their broadcast
// rent, and destroying them just to rebuild them Threshold reads later
// was the dominant online-vs-optimal waste — at which point the set
// collapses to the copy nearest the writer migrated one hop towards it
// (repeated write streaks pull the object to the writer). A single copy
// migrates on every write, as before the budget existed. Deletions are
// free; the migration moves data across one edge.
func (s *Strategy) serveWrite(x int, node tree.NodeID) int64 {
	target, path := s.pathToNearest(x, node)
	cost := int64(len(path))
	for _, e := range path {
		s.EdgeLoad[e]++
	}
	if len(s.copyList[x]) > 1 {
		cost += s.broadcast(x)
		s.wStreak[x]++
		if s.wStreak[x] < s.wBudget {
			return cost // replicas still earning their keep: no contraction
		}
	}
	home := target
	if node != target && len(path) > 0 {
		// Move one hop from target towards the writer.
		e := path[len(path)-1]
		home = s.t.Other(e, target)
		s.EdgeLoad[e]++ // migration transfer
		s.moveLoad[e]++
	}
	s.contract(x, home)
	s.wStreak[x] = 0
	// Contraction resets the read counters of the object.
	s.curGen[x]++
	return cost
}

// ServeBatch processes a whole batch and returns its total service cost,
// with final state bit-identical to serving the requests one at a time
// with Serve. The whole batch is validated before anything is served, so
// an out-of-range object panics exactly like Serve without serving a
// prefix of the batch.
func (s *Strategy) ServeBatch(reqs []Request) int64 {
	for i := range reqs {
		if x := reqs[i].Object; x < 0 || x >= len(s.isCopy) {
			panic(fmt.Sprintf("dynamic: object %d out of range", x))
		}
	}
	s.lastBatch = reqs
	s.requests += len(reqs)
	var total int64
	for i := range reqs {
		r := &reqs[i]
		x := r.Object
		if len(s.copyList[x]) == 0 {
			s.materialize(x, r.Node)
			continue
		}
		if r.Write {
			total += s.serveWrite(x, r.Node)
		} else if !s.isCopy[x][r.Node] {
			total += s.serveRead(x, r.Node)
		} else {
			// Local reads (the steady-state majority) fall through free —
			// but even a free read interrupts the write streak.
			s.wStreak[x] = 0
		}
	}
	return total
}

// GroupedBatch returns the batch the most recent ServeBatch call served,
// in the order it was served (the input itself), valid until the
// strategy's next call.
func (s *Strategy) GroupedBatch() []Request { return s.lastBatch }

// materialize creates object x's first copy on home. The copy-membership
// bits are allocated at first touch; the nearest tables only at the first
// multi-copy transition (see rebuildNearest) and the edge-indexed read
// counters only when the object first sees a remote read (see readCount)
// — purely local or write-dominated objects never pay for either.
func (s *Strategy) materialize(x int, home tree.NodeID) {
	if s.isCopy[x] == nil {
		s.isCopy[x] = make([]bool, s.t.Len())
		s.curGen[x] = 1
	}
	s.isCopy[x][home] = true
	s.copyList[x] = append(s.copyList[x][:0], home)
	s.resetBroadcast(x)
	s.tableValid[x] = false
	s.anchorTop[x] = home
	s.ops.Materializations++
}

// contract reduces object x's copy set to the single copy on home. No
// table is rebuilt — the object returns to connected mode, whose nearest
// resolution is table-free — which is what keeps the write path at
// O(path) instead of an O(|V|) BFS per write.
func (s *Strategy) contract(x int, home tree.NodeID) {
	if list := s.copyList[x]; len(list) == 1 && list[0] == home {
		s.resetBroadcast(x)
		return
	}
	for _, v := range s.copyList[x] {
		s.isCopy[x][v] = false
	}
	s.isCopy[x][home] = true
	s.copyList[x] = append(s.copyList[x][:0], home)
	s.resetBroadcast(x)
	s.tableValid[x] = false
	s.anchorTop[x] = home
	s.ops.Contractions++
}

// rebuildNearest recomputes the nearest tables of object x from scratch: a
// multi-source BFS from the current copy set. Ties go to the copy earliest
// in copyList (BFS seeding order), deterministically. The tables are
// allocated here on the object's first multi-copy transition.
func (s *Strategy) rebuildNearest(x int) {
	if s.nearest[x] == nil {
		n := s.t.Len()
		s.nearest[x] = make([]tree.NodeID, n)
		s.ndist[x] = make([]int32, n)
	}
	nearest, dist := s.nearest[x], s.ndist[x]
	for i := range dist {
		dist[i] = -1
	}
	queue := s.queue[:0]
	for _, v := range s.copyList[x] {
		if dist[v] == 0 {
			continue // duplicate source
		}
		dist[v] = 0
		nearest[v] = v
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range s.t.Adj(v) {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				nearest[h.To] = nearest[v]
				queue = append(queue, h.To)
			}
		}
	}
	s.queue = queue[:0]
	s.tableValid[x] = true
}

// AdoptCopySet replaces object x's copy set with the given set of nodes
// (duplicates ignored; must be non-empty) — the import half of the serving
// layer's epoch re-solve, which pushes a freshly solved static placement
// into the online strategy as its warm state. A changed set takes the
// nodes' order as its list and installTables' resolution, and the read
// counters and write streak reset, so threshold dynamics restart from the
// adopted placement. An unchanged set keeps its list, tables and counters.
//
// The returned value is the copy-movement distance: the sum over newly
// added copy nodes of their tree distance to the previous copy set (zero
// when the object had no copies yet, or when the set is unchanged). The
// caller decides whether to charge it to an edge-load account; the
// strategy itself books adoption separately from request-driven movement.
func (s *Strategy) AdoptCopySet(x int, nodes []tree.NodeID) int64 {
	if x < 0 || x >= len(s.isCopy) {
		panic(fmt.Sprintf("dynamic: object %d out of range", x))
	}
	if len(nodes) == 0 {
		panic("dynamic: AdoptCopySet with empty copy set")
	}
	if s.isCopy[x] == nil {
		// First touch via adoption: the object materializes directly on the
		// adopted set, no movement.
		s.isCopy[x] = make([]bool, s.t.Len())
		s.curGen[x] = 1
		for _, v := range nodes {
			if !s.isCopy[x][v] {
				s.isCopy[x][v] = true
				s.copyList[x] = append(s.copyList[x], v)
			}
		}
		s.installTables(x)
		s.rebuildBroadcast(x)
		s.ops.Adoptions++
		return 0
	}
	// Price each candidate's movement against the pre-adoption copy set
	// while its membership bits are still intact: the nearest tables for
	// adopted sets, the entry-point walk towards the anchor copy for
	// connected ones (same resolution pathToNearest serves with).
	dists := s.adoptDist[:0]
	for _, v := range nodes {
		var d int32
		if s.tableValid[x] {
			d = s.ndist[x][v]
		} else {
			_, path := s.pathToNearest(x, v)
			d = int32(len(path))
		}
		dists = append(dists, d)
	}
	s.adoptDist = dists
	// The new list goes to scratch: an unchanged set keeps its own.
	var moved int64
	added, dropped := 0, len(s.copyList[x])
	for _, v := range s.copyList[x] {
		s.isCopy[x][v] = false
	}
	list := s.adoptList[:0]
	for i, v := range nodes {
		if s.isCopy[x][v] {
			continue // duplicate in input
		}
		s.isCopy[x][v] = true
		list = append(list, v)
		if d := dists[i]; d > 0 {
			moved += int64(d)
			added++
		} else {
			dropped--
		}
	}
	s.adoptList = list
	if added == 0 && dropped == 0 {
		// Same set as before: the list, its tables and the broadcast edge
		// set stay; keep the read counters so an unchanged placement does
		// not reset adaptation.
		return 0
	}
	s.copyList[x] = append(s.copyList[x][:0], list...)
	s.installTables(x)
	s.rebuildBroadcast(x)
	s.curGen[x]++
	s.wStreak[x] = 0 // threshold dynamics restart from the adopted set
	s.ops.Adoptions++
	return moved
}

// installTables puts object x's nearest resolution into the mode its copy
// set determines (the one routine adoption and restore share): a single
// copy or a connected set is table-free, anchored at its one copy whose
// parent is not a copy, and any other set gets rebuildNearest over its
// list. Every table thus equals its list's rebuild, since addCopy appends
// the joiner and relaxes only strictly closer nodes, keeping the rebuild's
// earliest-listed tie rule. A connected set's nearest copy is unique, so
// it serves the same in either mode.
func (s *Strategy) installTables(x int) {
	ic, top, tops := s.isCopy[x], tree.None, 0
	for _, v := range s.copyList[x] {
		if p := s.r.Parent[v]; p == tree.None || !ic[p] {
			top = v
			tops++
		}
	}
	if tops == 1 {
		s.tableValid[x] = false
		s.anchorTop[x] = top
		return
	}
	s.rebuildNearest(x)
}

// addCopy inserts joiner (which is adjacent to a current copy across edge
// e) into object x's copy set. The write-broadcast edge set grows by
// exactly e: the Steiner tree of S ∪ {joiner} is the Steiner tree of S
// plus the path from joiner to it, which is e (or nothing, when joiner was
// already an interior node of an adopted non-connected set — the stamp
// check inside addBroadcastEdge covers that case). Connected-mode objects
// keep no tables; an adopted object's tables are relaxed from joiner: only
// nodes that get strictly closer update, so ties keep their previous
// reference copy (deterministically).
func (s *Strategy) addCopy(x int, joiner tree.NodeID, e tree.EdgeID) {
	if s.isCopy[x][joiner] {
		return
	}
	s.isCopy[x][joiner] = true
	s.copyList[x] = append(s.copyList[x], joiner)
	s.addBroadcastEdge(x, e)
	if !s.tableValid[x] {
		// Connected mode: nearest resolution is table-free; just keep the
		// anchor at the subtree's top.
		if s.r.Depth[joiner] < s.r.Depth[s.anchorTop[x]] {
			s.anchorTop[x] = joiner
		}
		return
	}
	nearest, dist := s.nearest[x], s.ndist[x]
	nearest[joiner] = joiner
	dist[joiner] = 0
	queue := append(s.queue[:0], joiner)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range s.t.Adj(v) {
			if dist[h.To] > dist[v]+1 {
				dist[h.To] = dist[v] + 1
				nearest[h.To] = joiner
				queue = append(queue, h.To)
			}
		}
	}
	s.queue = queue[:0]
}

// broadcast adds one unit to every write-broadcast edge of object x (the
// Steiner edges of its copy set, maintained incrementally) and returns the
// number of edges loaded. This replaces the per-write bottom-up Steiner
// pass: a write now costs O(|Steiner edges|), not O(|V|).
func (s *Strategy) broadcast(x int) int64 {
	edges := s.bcast[x]
	for _, e := range edges {
		s.EdgeLoad[e]++
	}
	return int64(len(edges))
}

// resetBroadcast empties object x's write-broadcast edge set by advancing
// its generation (stamps from earlier generations become stale in place).
func (s *Strategy) resetBroadcast(x int) {
	s.bcast[x] = s.bcast[x][:0]
	s.bcastGen[x]++
}

// addBroadcastEdge inserts e into object x's write-broadcast edge set if
// it is not already present. The stamp table is allocated at the object's
// first such insert, stamped with the set's edges — objects whose set
// never grows one edge at a time never pay for it.
func (s *Strategy) addBroadcastEdge(x int, e tree.EdgeID) {
	stamp, gen := s.bcastStamp[x], s.bcastGen[x]
	if stamp == nil {
		stamp = make([]uint32, s.t.NumEdges())
		for _, b := range s.bcast[x] {
			stamp[b] = gen
		}
		s.bcastStamp[x] = stamp
	}
	if stamp[e] == gen {
		return
	}
	stamp[e] = gen
	s.bcast[x] = append(s.bcast[x], e)
}

// rebuildBroadcast recomputes object x's write-broadcast edge set from
// scratch: an edge is a Steiner edge iff the copy count below it (one
// bottom-up pass over the packed traversal) is neither zero nor the full
// set. Only AdoptCopySet needs this — its imported static placements need
// not be connected — while request-driven copy-set changes maintain the
// set incrementally.
func (s *Strategy) rebuildBroadcast(x int) {
	s.resetBroadcast(x)
	if len(s.copyList[x]) <= 1 {
		return
	}
	cnt := s.steinerCt
	clear(cnt)
	total := int32(len(s.copyList[x]))
	for _, v := range s.copyList[x] {
		cnt[v] = 1
	}
	// The pass meets each edge once, so the set needs no membership test;
	// a stamp table the object already has is kept current.
	stamp, gen := s.bcastStamp[x], s.bcastGen[x]
	steps := s.r.Steps()
	for i := len(steps) - 1; i >= 1; i-- {
		st := steps[i]
		if c := cnt[st.V]; c > 0 {
			if c < total {
				s.bcast[x] = append(s.bcast[x], st.Edge)
				if stamp != nil {
					stamp[st.Edge] = gen
				}
			}
			cnt[st.Parent] += c
		}
	}
}

func (s *Strategy) readCount(x int, e tree.EdgeID) int32 {
	cw := s.readCW[x]
	if cw == nil {
		return 0
	}
	if w := cw[e]; uint32(w>>32) == s.curGen[x] {
		return int32(uint32(w))
	}
	return 0
}

func (s *Strategy) setReadCount(x int, e tree.EdgeID, c int32) {
	if s.readCW[x] == nil {
		s.readCW[x] = make([]uint64, s.t.NumEdges())
	}
	s.readCW[x][e] = uint64(s.curGen[x])<<32 | uint64(uint32(c))
}

// ServeAll processes a whole sequence and returns the total service cost.
func (s *Strategy) ServeAll(reqs []Request) int64 {
	var total int64
	for _, r := range reqs {
		total += s.Serve(r)
	}
	return total
}

// MaxEdgeLoad returns the highest total edge load (congestion numerator
// for unit bandwidths).
func (s *Strategy) MaxEdgeLoad() int64 {
	var m int64
	for _, l := range s.EdgeLoad {
		if l > m {
			m = l
		}
	}
	return m
}

// TotalLoad returns the sum of all edge loads including copy movement.
func (s *Strategy) TotalLoad() int64 {
	var m int64
	for _, l := range s.EdgeLoad {
		m += l
	}
	return m
}

// RandomSequence draws a request sequence with the given write fraction;
// per object a small set of interested leaves is chosen so that locality
// exists to exploit.
func RandomSequence(rng *rand.Rand, t *tree.Tree, numObjects, n int, writeFrac float64) []Request {
	leaves := t.Leaves()
	interested := make([][]tree.NodeID, numObjects)
	for x := range interested {
		k := 1 + rng.Intn(min(4, len(leaves)))
		perm := rng.Perm(len(leaves))
		for i := 0; i < k; i++ {
			interested[x] = append(interested[x], leaves[perm[i]])
		}
	}
	reqs := make([]Request, n)
	for i := range reqs {
		x := rng.Intn(numObjects)
		reqs[i] = Request{
			Object: x,
			Node:   interested[x][rng.Intn(len(interested[x]))],
			Write:  rng.Float64() < writeFrac,
		}
	}
	return reqs
}

// OfflineTracker records observed access frequencies, the reads and
// writes per processor per object that the paper's static problem takes
// as input, together with the queue of objects recorded since the last
// drain and what each object recorded since its last fold (SinceFold).
// The serving layer records each shard's traffic through one and feeds
// its epoch re-solver from the queue (DrainDrifted), folding each drained
// object's counts since its last fold. The static comparator of the
// online strategy's experiments is StaticOffline.
//
// Trackers that record disjoint sets of objects may share one frequency
// table (see NewOfflineTrackerWith), so a sharded cluster keeps one table
// however many shards it has. The drift queue and the since-fold state
// are each tracker's own.
type OfflineTracker struct {
	w     *workload.W
	since *SinceFold
	// driftQ holds the objects recorded since the last drain, in
	// first-touch order; drift marks its members.
	drift  []bool
	driftQ []int
}

// NewOfflineTracker creates a tracker for numObjects objects on t, over a
// frequency table of its own.
func NewOfflineTracker(t *tree.Tree, numObjects int) *OfflineTracker {
	return NewOfflineTrackerWith(t, workload.New(numObjects, t.Len()), NewSinceFold(numObjects, t.Len(), 1))
}

// NewOfflineTrackerWith creates a tracker that records into w, starting
// from the frequencies w already holds, with since as the state of what
// its objects recorded since their last fold (nil: nothing, over every
// object of w); the dimensions of w and since must match t. Several
// trackers may share w when they record disjoint objects and each
// object's row is written under one lock: the serving layer builds every
// shard's tracker over the cluster's one table, with a since-fold state
// for the objects the shard owns, and a shard records only those objects,
// under its own lock.
func NewOfflineTrackerWith(t *tree.Tree, w *workload.W, since *SinceFold) *OfflineTracker {
	if w.NumNodes() != t.Len() {
		panic(fmt.Sprintf("dynamic: tracker workload built for %d nodes, tree has %d", w.NumNodes(), t.Len()))
	}
	if since == nil {
		// Nothing recorded since the fold: each row as w holds it is its
		// last-fold row.
		since = NewSinceFold(w.NumObjects(), t.Len(), 1)
		for x := range w.NumObjects() {
			if hasCount(w.Row(x)) {
				since.MarkFolded(x)
			}
		}
	}
	if since.NumObjects() != w.NumObjects() || since.NumNodes() != t.Len() {
		panic(fmt.Sprintf("dynamic: since-fold state for %d×%d, tracker workload is %d×%d",
			since.NumObjects(), since.NumNodes(), w.NumObjects(), w.NumNodes()))
	}
	return &OfflineTracker{w: w, since: since, drift: make([]bool, w.NumObjects())}
}

// RecordBatch folds a batch of requests into the frequencies, marks each
// cell's first touch since its object's last fold, and queues each object
// the first time it is recorded since the last drain. Runs of identical
// events collapse into one frequency addition.
func (ot *OfflineTracker) RecordBatch(reqs []Request) {
	s := ot.since
	touched, words := s.bits, s.words
	for i := 0; i < len(reqs); {
		r := reqs[i]
		j := i + 1
		for j < len(reqs) && reqs[j] == r {
			j++
		}
		cell := &ot.w.Row(r.Object)[r.Node]
		// The touched test is one word per run; a first touch saves the
		// cell's count before the run is added.
		li := s.local(r.Object)
		if k, bit := li*words+int(r.Node)>>6, uint64(1)<<(uint(r.Node)&63); touched[k]&bit == 0 {
			s.first(li, k, bit, r.Node, *cell)
		}
		if r.Write {
			cell.Writes += int64(j - i)
		} else {
			cell.Reads += int64(j - i)
		}
		if !ot.drift[r.Object] {
			ot.drift[r.Object] = true
			ot.driftQ = append(ot.driftQ, r.Object)
		}
		i = j
	}
}

// DrainDrifted appends to dst the objects recorded since the previous
// drain (in first-touch order) and resets the drift set. The objects'
// since-fold state stays until the caller folds them (SinceFold.Forget).
func (ot *OfflineTracker) DrainDrifted(dst []int) []int {
	dst = append(dst, ot.driftQ...)
	for _, x := range ot.driftQ {
		ot.drift[x] = false
	}
	ot.driftQ = ot.driftQ[:0]
	return dst
}

// MarkDrifted re-marks objects as drifted, as if they had just been
// recorded. The serving layer's restore and staged reconfiguration
// rebuild each shard tracker and must carry the old tracker's un-drained
// drift flags across (the frequencies and the since-fold state come over
// through NewOfflineTrackerWith) — otherwise deltas recorded between the
// plan's drift fold and the shard's swap would never be announced to the
// epoch re-solver. Objects already marked are not re-queued.
func (ot *OfflineTracker) MarkDrifted(xs []int) {
	for _, x := range xs {
		if !ot.drift[x] {
			ot.drift[x] = true
			ot.driftQ = append(ot.driftQ, x)
		}
	}
}

// Workload exposes the frequency table the tracker records into
// (read-only). A shared table holds the other trackers' rows as well.
func (ot *OfflineTracker) Workload() *workload.W { return ot.w }

// Since exposes the tracker's since-fold state. Recording writes it; the
// caller that folds the drained objects reads it and then forgets them.
func (ot *OfflineTracker) Since() *SinceFold { return ot.since }

// StaticOffline evaluates the clairvoyant static comparator: aggregate the
// sequence into frequencies, run the (optimal, inner-nodes-allowed) nibble
// strategy, and return its total load and per-edge loads on the same
// sequence. This lower-bounds every static placement, so
// dynamic/static ≥ 1 and the interesting question is how close to 1 the
// online strategy gets.
func StaticOffline(t *tree.Tree, numObjects int, reqs []Request) (*placement.Report, error) {
	w := workload.New(numObjects, t.Len())
	w.AddTrace(reqs)
	nib := nibble.Place(t, w)
	p, err := nib.Placement(t, w)
	if err != nil {
		return nil, err
	}
	return placement.Evaluate(t, p), nil
}
