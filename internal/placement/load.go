package placement

import (
	"fmt"

	"hbn/internal/par"
	"hbn/internal/ratio"
	"hbn/internal/tree"
)

// Report holds the exact loads induced by a placement.
type Report struct {
	// EdgeLoad[e] is the (integer) load of edge e.
	EdgeLoad []int64
	// BusLoadX2[v] is twice the load of bus v (bus loads are half-integers;
	// doubling keeps them exact). Zero for processors.
	BusLoadX2 []int64
	// TotalLoad is the sum of all edge loads (the "total communication
	// load" the related-work section contrasts congestion with).
	TotalLoad int64
	// Congestion is the maximum relative load over edges and buses, exact.
	Congestion ratio.R
	// BottleneckEdge / BottleneckBus identify the resource attaining the
	// congestion: exactly one is set (the other holds its sentinel), or
	// both hold sentinels when the congestion is zero.
	BottleneckEdge tree.EdgeID
	BottleneckBus  tree.NodeID
	// Bottleneck describes the bottleneck resource. Evaluate fills it;
	// the allocation-free EvaluateInto leaves it empty — call
	// FormatBottleneck when needed.
	Bottleneck string
}

// MaxEdgeLoad returns the maximum raw (bandwidth-free) edge load.
func (rep *Report) MaxEdgeLoad() int64 {
	var m int64
	for _, l := range rep.EdgeLoad {
		if l > m {
			m = l
		}
	}
	return m
}

// FormatBottleneck renders the bottleneck resource of the report against
// its tree (the one the report was evaluated on).
func (rep *Report) FormatBottleneck(t *tree.Tree) string {
	switch {
	case rep.BottleneckEdge != tree.NoEdge:
		u, v := t.Endpoints(rep.BottleneckEdge)
		return fmt.Sprintf("edge %d (%s-%s)", rep.BottleneckEdge, t.Name(u), t.Name(v))
	case rep.BottleneckBus != tree.None:
		return fmt.Sprintf("bus %d (%s)", rep.BottleneckBus, t.Name(rep.BottleneckBus))
	default:
		return ""
	}
}

// Evaluator computes exact loads with reusable scratch state: the rooted
// orientation (with its O(1) LCA index), the path-difference and subtree
// buffers, and the copy-node deduplication buffer all persist across
// calls, so steady-state evaluation allocates nothing beyond the caller's
// Report. An Evaluator is NOT safe for concurrent use; EvaluateParallel
// shards objects over per-worker Evaluators instead.
type Evaluator struct {
	t *tree.Tree
	r *tree.Rooted

	diff []int64
	cnt  []int32
	sums []int64

	// perObj[x] is object x's edge-load contribution, maintained by
	// EvaluateTracked/Reevaluate for incremental re-evaluation; flat is the
	// shared backing array (reused across tracked evaluations of equal
	// shape); dirty is the O(1) dedup bitmap for Reevaluate's changed list.
	perObj  [][]int64
	flat    []int64
	tracked []int64
	dirty   []bool
	uniq    []int // ReevaluateInto's deduplicated changed list

	// pool holds the per-worker evaluators and partial edge-load arrays of
	// EvaluateParallel, grown on demand and reused across calls.
	pool    []*Evaluator
	partial [][]int64
}

// NewEvaluator returns an Evaluator for t on the tree's shared node-0
// orientation (the rooting is irrelevant for the result; it only orients
// the LCA difference trick).
func NewEvaluator(t *tree.Tree) *Evaluator {
	return newEvaluatorShared(t, t.Rooted0())
}

// newEvaluatorShared builds an Evaluator on an existing (possibly shared,
// read-only) orientation. Shared use is safe: Evaluator only reads r, and
// r's lazy LCA index build is internally synchronized.
func newEvaluatorShared(t *tree.Tree, r *tree.Rooted) *Evaluator {
	return &Evaluator{
		t:    t,
		r:    r,
		diff: make([]int64, t.Len()),
		cnt:  make([]int32, t.Len()),
	}
}

// Evaluate computes the exact loads and congestion of p on t, like the
// package-level Evaluate, reusing the evaluator's scratch state.
func (ev *Evaluator) Evaluate(p *P) *Report {
	rep := ev.EvaluateInto(&Report{}, p)
	rep.Bottleneck = rep.FormatBottleneck(ev.t)
	return rep
}

// EvaluateInto is Evaluate writing into rep, reusing rep's slices when
// their capacity suffices. It performs no allocation on the steady path
// and leaves rep.Bottleneck empty (the typed BottleneckEdge/BottleneckBus
// fields are always set).
func (ev *Evaluator) EvaluateInto(rep *Report, p *P) *Report {
	ev.resetReport(rep)
	for x := 0; x < p.NumObjects; x++ {
		ev.accumulateObject(p, x, rep.EdgeLoad)
	}
	finishReport(ev.t, rep)
	return rep
}

// EvaluateMany evaluates placements in order with shared scratch — the
// batch entry point for sweeps that score many candidate placements.
func (ev *Evaluator) EvaluateMany(ps []*P) []*Report {
	out := make([]*Report, len(ps))
	for i, p := range ps {
		out[i] = ev.Evaluate(p)
	}
	return out
}

// EvaluateTracked is Evaluate, additionally remembering every object's
// edge-load contribution so a later Reevaluate can refresh only the
// objects that changed.
func (ev *Evaluator) EvaluateTracked(p *P) *Report {
	return ev.EvaluateTrackedInto(&Report{}, p, 1)
}

// EvaluateTrackedInto is EvaluateTracked writing into rep, reusing the
// evaluator's tracking buffers when their shape still matches and sharding
// the per-object accumulation over workers (<= 0 means GOMAXPROCS; every
// object writes its own pre-assigned slot, so the result is bit-identical
// for any worker count). A warm call allocates nothing beyond the report's
// bottleneck string.
func (ev *Evaluator) EvaluateTrackedInto(rep *Report, p *P, workers int) *Report {
	ne := ev.t.NumEdges()
	if len(ev.perObj) != p.NumObjects || len(ev.flat) != p.NumObjects*ne {
		ev.perObj = make([][]int64, p.NumObjects)
		ev.flat = make([]int64, p.NumObjects*ne) // one backing array for locality
		ev.tracked = make([]int64, ne)
		ev.dirty = make([]bool, p.NumObjects)
		for x := range ev.perObj {
			ev.perObj[x] = ev.flat[x*ne : (x+1)*ne : (x+1)*ne]
		}
	} else {
		clear(ev.flat)
	}
	clear(ev.tracked)
	workers = par.Workers(workers)
	if workers <= 1 || p.NumObjects <= 1 {
		for x := range ev.perObj {
			ev.accumulateObject(p, x, ev.perObj[x])
		}
	} else {
		ev.growPool(workers)
		par.ForEach(workers, p.NumObjects, func(w, x int) {
			ev.pool[w].accumulateObject(p, x, ev.perObj[x])
		})
	}
	for x := range ev.perObj {
		for e, l := range ev.perObj[x] {
			ev.tracked[e] += l
		}
	}
	return ev.trackedReportInto(rep)
}

// Reevaluate refreshes the tracked evaluation after the listed objects
// changed in p (duplicates are fine) and returns the new report. Cost is
// O(changed · |V|) instead of O(|X| · |V|). EvaluateTracked must have run
// first with the same object count.
func (ev *Evaluator) Reevaluate(p *P, changed []int) *Report {
	return ev.ReevaluateInto(&Report{}, p, changed, 1)
}

// ReevaluateInto is Reevaluate writing into rep (reusing its slices) and
// sharding the refresh over workers (<= 0 means GOMAXPROCS), like
// EvaluateTrackedInto. The changed list is deduplicated first; then, for
// each object, a worker subtracts the old per-object row into its own
// partial edge-load array, clears the row, re-accumulates it and adds the
// new row to the same partial array, and the partials are merged into the
// tracked loads once. Integer sums are exact, so the report, the tracked
// loads and every per-object row are bit-identical for any worker count.
// The steady path allocates nothing but the bottleneck string and, with
// several workers, the goroutine plumbing.
func (ev *Evaluator) ReevaluateInto(rep *Report, p *P, changed []int, workers int) *Report {
	if ev.perObj == nil || len(ev.perObj) != p.NumObjects {
		panic("placement: Reevaluate without matching EvaluateTracked")
	}
	uniq := ev.uniq[:0]
	for _, x := range changed {
		if ev.dirty[x] {
			continue
		}
		ev.dirty[x] = true
		uniq = append(uniq, x)
	}
	for _, x := range uniq {
		ev.dirty[x] = false
	}
	ev.uniq = uniq[:0]
	workers = min(par.Workers(workers), len(uniq))
	if workers <= 1 {
		for _, x := range uniq {
			ev.refreshObject(p, x, ev.perObj[x], ev.tracked)
		}
	} else {
		ev.growPool(workers)
		for _, part := range ev.partial[:workers] {
			clear(part)
		}
		par.ForEach(workers, len(uniq), func(w, i int) {
			ev.pool[w].refreshObject(p, uniq[i], ev.perObj[uniq[i]], ev.partial[w])
		})
		for _, part := range ev.partial[:workers] {
			for e, l := range part {
				ev.tracked[e] += l
			}
		}
	}
	return ev.trackedReportInto(rep)
}

// refreshObject replaces row, object x's tracked contribution, with its
// contribution under p and moves the difference into loads: the old row
// is subtracted, the row re-accumulated with ev's scratch, and the new
// row added.
func (ev *Evaluator) refreshObject(p *P, x int, row, loads []int64) {
	for e, l := range row {
		loads[e] -= l
	}
	clear(row)
	ev.accumulateObject(p, x, row)
	for e, l := range row {
		loads[e] += l
	}
}

// growPool grows the per-worker evaluators and partial edge-load arrays
// of the parallel paths to workers.
func (ev *Evaluator) growPool(workers int) {
	for len(ev.pool) < workers {
		ev.pool = append(ev.pool, newEvaluatorShared(ev.t, ev.r))
		ev.partial = append(ev.partial, make([]int64, ev.t.NumEdges()))
	}
}

func (ev *Evaluator) trackedReportInto(rep *Report) *Report {
	ev.resetReport(rep)
	copy(rep.EdgeLoad, ev.tracked)
	finishReport(ev.t, rep)
	rep.Bottleneck = rep.FormatBottleneck(ev.t)
	return rep
}

func (ev *Evaluator) resetReport(rep *Report) {
	ne, n := ev.t.NumEdges(), ev.t.Len()
	if cap(rep.EdgeLoad) < ne {
		rep.EdgeLoad = make([]int64, ne)
	} else {
		rep.EdgeLoad = rep.EdgeLoad[:ne]
		clear(rep.EdgeLoad)
	}
	if cap(rep.BusLoadX2) < n {
		rep.BusLoadX2 = make([]int64, n)
	} else {
		rep.BusLoadX2 = rep.BusLoadX2[:n]
		clear(rep.BusLoadX2)
	}
	rep.TotalLoad = 0
	rep.Congestion = ratio.Zero
	rep.BottleneckEdge = tree.NoEdge
	rep.BottleneckBus = tree.None
	rep.Bottleneck = ""
}

// accumulateObject adds object x's exact edge loads to edgeLoad.
//
// Per-object cost model (paper Section 1.1): every share (n, reads,
// writes) assigned to a copy on node u loads each edge of the path n↔u
// with reads+writes; additionally each edge of the Steiner tree of the
// copy set of x is loaded with κ_x (one per write request, κ_x in total).
// Path loads are accumulated with the LCA difference trick and folded
// bottom-up together with the Steiner membership counts in one reverse
// preorder pass (a node's subtree aggregate is final when the reverse
// walk reaches it), so the cost is O(|V|) per object rather than
// O(requests · pathlength).
func (ev *Evaluator) accumulateObject(p *P, x int, edgeLoad []int64) {
	r := ev.r
	lca := r.LCAIndex()
	pos := r.Pos()
	var kappa int64
	pathDemand := false
	clear(ev.diff)
	// diff and cnt are indexed by preorder POSITION, not node ID, so the
	// bottom-up fold below reads them sequentially.
	for _, c := range p.Copies[x] {
		cpos := pos[c.Node]
		for _, sh := range c.Shares {
			kappa += sh.Writes
			n := sh.Total()
			if n == 0 || sh.Node == c.Node {
				continue
			}
			// Path accumulation: +n at both endpoints, -2n at the LCA;
			// the edge above v then carries the subtree sum at v.
			ev.diff[pos[sh.Node]] += n
			ev.diff[cpos] += n
			ev.diff[pos[lca.LCA(sh.Node, c.Node)]] -= 2 * n
			pathDemand = true
		}
	}
	// Update broadcast: κ_x on every Steiner edge of the copy set. An edge
	// is a Steiner edge iff both of its sides hold a copy, i.e. the copy
	// count below it is neither zero nor the size of the (distinct) set.
	var total int32
	if kappa > 0 && len(p.Copies[x]) > 1 {
		clear(ev.cnt)
		for _, c := range p.Copies[x] {
			if cp := pos[c.Node]; ev.cnt[cp] == 0 {
				ev.cnt[cp] = 1
				total++
			}
		}
	}
	steiner := total > 1
	if !pathDemand && !steiner {
		return
	}
	diff, cnt, steps := ev.diff, ev.cnt, r.Steps()
	if steiner {
		for i := len(steps) - 1; i >= 1; i-- {
			s := steps[i]
			if l := diff[i]; l != 0 {
				edgeLoad[s.Edge] += l
				diff[s.ParentPos] += l
			}
			if c := cnt[i]; c > 0 {
				if c < total {
					edgeLoad[s.Edge] += kappa
				}
				cnt[s.ParentPos] += c
			}
		}
	} else {
		for i := len(steps) - 1; i >= 1; i-- {
			if l := diff[i]; l != 0 {
				s := steps[i]
				edgeLoad[s.Edge] += l
				diff[s.ParentPos] += l
			}
		}
	}
}

// finishReport derives bus loads, total load and the congestion maximum
// from rep.EdgeLoad.
func finishReport(t *tree.Tree, rep *Report) {
	for e, l := range rep.EdgeLoad {
		rep.TotalLoad += l
		u, v := t.Endpoints(tree.EdgeID(e))
		rep.BusLoadX2[u] += l
		rep.BusLoadX2[v] += l
	}
	for e, l := range rep.EdgeLoad {
		rel := ratio.New(l, t.EdgeBandwidth(tree.EdgeID(e)))
		if rep.Congestion.Less(rel) {
			rep.Congestion = rel
			rep.BottleneckEdge = tree.EdgeID(e)
		}
	}
	for _, b := range t.Buses() {
		rel := ratio.New(rep.BusLoadX2[b], 2*t.NodeBandwidth(b))
		if rep.Congestion.Less(rel) {
			rep.Congestion = rel
			rep.BottleneckEdge = tree.NoEdge
			rep.BottleneckBus = b
		}
	}
}

// Evaluate computes the exact loads and congestion of p on t. It is the
// convenience entry point; hot paths hold an Evaluator (or use
// EvaluateParallel) to amortize the orientation and scratch state.
func Evaluate(t *tree.Tree, p *P) *Report {
	return NewEvaluator(t).Evaluate(p)
}

// EvaluateParallel is Evaluate sharding the per-object load accumulation
// over workers (<= 0 means GOMAXPROCS): each worker accumulates into its
// own partial edge-load array and the partials are merged at the end.
// Integer addition is exact and commutative, so the result is bit-identical
// to the sequential evaluation for any worker count.
func EvaluateParallel(t *tree.Tree, p *P, workers int) *Report {
	return NewEvaluator(t).EvaluateParallel(p, workers)
}

// EvaluateParallel is the evaluator-bound form of the package-level
// EvaluateParallel; the per-worker evaluators and partial arrays persist
// on the parent evaluator across calls.
func (ev *Evaluator) EvaluateParallel(p *P, workers int) *Report {
	workers = par.Workers(workers)
	if workers <= 1 || p.NumObjects <= 1 {
		return ev.Evaluate(p)
	}
	t := ev.t
	ev.growPool(workers)
	for _, part := range ev.partial[:workers] {
		clear(part)
	}
	par.ForEach(workers, p.NumObjects, func(w, x int) {
		ev.pool[w].accumulateObject(p, x, ev.partial[w])
	})
	rep := &Report{
		EdgeLoad:       make([]int64, t.NumEdges()),
		BusLoadX2:      make([]int64, t.Len()),
		Congestion:     ratio.Zero,
		BottleneckEdge: tree.NoEdge,
		BottleneckBus:  tree.None,
	}
	for _, part := range ev.partial[:workers] {
		for e, l := range part {
			rep.EdgeLoad[e] += l
		}
	}
	finishReport(t, rep)
	rep.Bottleneck = rep.FormatBottleneck(t)
	return rep
}

// PerObjectEdgeLoads computes, for a single object's copies, the load each
// edge carries for that object alone. Used by the per-edge optimality tests
// of Theorem 3.1.
func PerObjectEdgeLoads(t *tree.Tree, p *P, x int) []int64 {
	ev := NewEvaluator(t)
	loads := make([]int64, t.NumEdges())
	ev.accumulateObject(p, x, loads)
	return loads
}
