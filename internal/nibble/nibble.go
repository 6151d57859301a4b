// Package nibble implements Step 1 of the extended-nibble strategy: the
// nibble strategy of Maggs, Meyer auf der Heide, Vöcking and Westermann
// (FOCS'97), as restated in Section 3.1 of the paper.
//
// For each object x the strategy roots the tree at a gravity center g(T)
// with respect to the access weights h(v) = r(v)+w(v), and places a copy on
// a node v iff v = g(T) or h(T(v)) > w(T), where T(v) is the maximal
// subtree rooted at v and w(T) = κ_x is the total write frequency. The
// resulting copy set is a connected subtree containing g(T), achieves
// minimum load on every edge simultaneously (Theorem 3.1), and may place
// copies on inner nodes — which Steps 2 and 3 repair for bus networks.
package nibble

import (
	"fmt"

	"hbn/internal/par"
	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// ObjectPlacement is the nibble placement of a single object.
type ObjectPlacement struct {
	// Gravity is the chosen gravity center g(T) for the object.
	Gravity tree.NodeID
	// Copies is the copy set, sorted by node ID. It always contains
	// Gravity and forms a connected subtree.
	Copies []tree.NodeID
}

// Result is the nibble placement of all objects.
type Result struct {
	Objects []ObjectPlacement
}

// CopySets returns the per-object copy node sets.
func (r *Result) CopySets() [][]tree.NodeID {
	out := make([][]tree.NodeID, len(r.Objects))
	for i := range r.Objects {
		out[i] = r.Objects[i].Copies
	}
	return out
}

// Scratch holds the reusable per-worker state of the nibble strategy: the
// shared (read-only) 0-rooted orientation, the closure builder and the
// subtree buffers. One Scratch serves many placements without allocating;
// it is not safe for concurrent use.
//
// Every placement works on the closure of the object's support (the nodes
// with demand and their ancestors towards node 0), so its cost follows
// the object's traffic rather than |V|: a node outside the closure has no
// demand below it, which settles its part of the answer without a visit.
type Scratch struct {
	r0  *tree.Rooted
	cl  *tree.Closure
	sub []int64 // subtree sums, valid on the current closure only
	big []int64 // largest child subtree sum, valid on the closure only
	sup workload.Support
}

// NewScratch returns a Scratch for t. Workers may share r0 (it is only
// read), so PlaceParallel builds one orientation and hands it to every
// worker's scratch.
func NewScratch(t *tree.Tree) *Scratch { return newScratchShared(t.Rooted0()) }

func newScratchShared(r0 *tree.Rooted) *Scratch {
	n := len(r0.Parent)
	return &Scratch{r0: r0, cl: tree.NewClosure(r0), sub: make([]int64, n), big: make([]int64, n)}
}

// GravityCenter returns a gravity center of t under the node weights h:
// a node whose removal splits the tree into components each of total
// weight at most half of the overall weight. Among all such nodes the one
// with the smallest ID is returned (the paper allows an arbitrary choice).
// If the total weight is zero, the lowest-ID leaf is returned.
func GravityCenter(t *tree.Tree, h []int64) tree.NodeID {
	s := NewScratch(t)
	s.supportOf(t, h)
	g, _, _ := s.gravityCenter(t, s.sup.Nodes, s.sup.H)
	return g
}

// supportOf fills s.sup with the nonzero entries of the dense weight
// vector h (negative ones included, so the placement rejects them).
func (s *Scratch) supportOf(t *tree.Tree, h []int64) {
	if len(h) != t.Len() {
		panic(fmt.Sprintf("nibble: %d weights for %d nodes", len(h), t.Len()))
	}
	nodes, hs := s.sup.Nodes[:0], s.sup.H[:0]
	for v, x := range h {
		if x != 0 {
			nodes = append(nodes, tree.NodeID(v))
			hs = append(hs, x)
		}
	}
	s.sup.Nodes, s.sup.H = nodes, hs
}

// gravityCenter returns the gravity center of the object whose support
// is nodes with weights h, the closure of the support in ID order and the
// total weight; it leaves the 0-rooted subtree sums of the closure in
// s.sub. Outside the closure a node's own subtree holds no demand, so
// removing it leaves the whole demand in one component and it never
// qualifies while the total is positive: the first qualifying closure
// node in ID order is the first qualifying node of the tree.
func (s *Scratch) gravityCenter(t *tree.Tree, nodes []tree.NodeID, h []int64) (tree.NodeID, []tree.NodeID, int64) {
	var total int64
	for _, v := range h {
		if v < 0 {
			panic("nibble: negative weight")
		}
		total += v
	}
	if total == 0 {
		return t.Leaves()[0], nil, 0
	}
	cl := s.cl
	cl.Reset()
	for _, v := range nodes {
		cl.Add(v)
	}
	sub, big := s.sub, s.big
	for _, v := range cl.Nodes() {
		sub[v], big[v] = 0, 0
	}
	for i, v := range nodes {
		sub[v] += h[i]
	}
	steps := s.r0.Steps()
	order := cl.Preorder()
	for i := len(order) - 1; i >= 1; i-- {
		st := steps[order[i]]
		sv := sub[st.V]
		sub[st.Parent] += sv
		big[st.Parent] = max(big[st.Parent], sv)
	}
	// The components created by removing v are the subtrees of its
	// children plus the "rest of the tree" above it.
	ids := cl.ByID()
	for _, v := range ids {
		if 2*max(total-sub[v], big[v]) <= total {
			return v, ids, total
		}
	}
	// Cannot happen: every weighted tree has a gravity center.
	panic("nibble: no gravity center found")
}

// PlaceObject computes the nibble copy set for a single object given its
// per-node weights h and write contention kappa. Objects with no accesses
// at all receive a single copy on the lowest-ID leaf (a documented
// convention; any node works since such objects induce no load).
func PlaceObject(t *tree.Tree, h []int64, kappa int64) ObjectPlacement {
	s := NewScratch(t)
	s.supportOf(t, h)
	return s.place(t, s.sup.Nodes, s.sup.H, kappa, nil)
}

// place computes the copy set of the object whose support is nodes with
// weights h, appending it into dst[:0] (reusing its capacity; nil
// allocates) — the one implementation behind every entry point.
func (s *Scratch) place(t *tree.Tree, nodes []tree.NodeID, h []int64, kappa int64, dst []tree.NodeID) ObjectPlacement {
	g, ids, total := s.gravityCenter(t, nodes, h)
	if total == 0 {
		return ObjectPlacement{Gravity: g, Copies: append(dst[:0], g)}
	}
	if kappa < 0 {
		panic("nibble: negative write contention")
	}
	// Convert the 0-rooted subtree sums (left in s.sub by gravityCenter)
	// into g-rooted ones in place instead of re-rooting the whole tree:
	// re-rooting at g only changes the sums on the ancestor chain of g,
	// where the g-rooted subtree of a is everything except the 0-rooted
	// subtree of a's child towards g. The chain lies in the closure.
	r0 := s.r0
	sub := s.sub
	prevOrig := sub[g]
	sub[g] = total
	for a := r0.Parent[g]; a != tree.None; a = r0.Parent[a] {
		orig := sub[a]
		sub[a] = total - prevOrig
		prevOrig = orig
	}
	// Outside the closure the g-rooted subtree of a node is its 0-rooted
	// one (the node is no ancestor of g) and holds no demand, so no copy.
	copies := dst[:0]
	if copies == nil {
		copies = make([]tree.NodeID, 0, 8)
	}
	for _, v := range ids {
		if v == g || sub[v] > kappa {
			copies = append(copies, v)
		}
	}
	return ObjectPlacement{Gravity: g, Copies: copies}
}

// PlaceSupportInto computes the nibble copy set of the object whose row
// has support sup, appending it into dst[:0] (reusing its capacity; nil
// allocates), for callers that scanned the row already and own the
// result storage.
func PlaceSupportInto(s *Scratch, t *tree.Tree, sup *workload.Support, dst []tree.NodeID) ObjectPlacement {
	return s.place(t, sup.Nodes, sup.H, sup.Kappa, dst)
}

// Place runs the nibble strategy for every object of w on t.
func Place(t *tree.Tree, w *workload.W) *Result {
	return PlaceParallel(t, w, 1)
}

// PlaceParallel is Place sharding objects over workers (<= 0 means
// GOMAXPROCS) with per-worker scratch. Objects are placed independently
// into their result slots, so the output is bit-identical to sequential
// placement.
func PlaceParallel(t *tree.Tree, w *workload.W, workers int) *Result {
	if w.NumNodes() != t.Len() {
		panic(fmt.Sprintf("nibble: workload for %d nodes, tree has %d", w.NumNodes(), t.Len()))
	}
	workers = par.Workers(workers)
	r0 := t.Rooted0()
	scr := make([]*Scratch, workers)
	res := &Result{Objects: make([]ObjectPlacement, w.NumObjects())}
	par.ForEach(workers, w.NumObjects(), func(wk, x int) {
		s := scr[wk]
		if s == nil {
			s = newScratchShared(r0)
			scr[wk] = s
		}
		w.SupportInto(x, &s.sup)
		res.Objects[x] = s.place(t, s.sup.Nodes, s.sup.H, s.sup.Kappa, nil)
	})
	return res
}

// Placement materializes the nibble result as a placement with the
// nearest-copy reference assignment (the paper's convention: "the
// reference copy c(P,x) is the copy of x stored on the node closest to
// P"). Because the copy set is a connected subtree, the nearest copy is
// unique for every node.
func (r *Result) Placement(t *tree.Tree, w *workload.W) (*placement.P, error) {
	return placement.NearestAssignment(t, w, r.CopySets())
}

// PlacementParallel is Placement sharding the per-object assignment over
// workers (<= 0 means GOMAXPROCS).
func (r *Result) PlacementParallel(t *tree.Tree, w *workload.W, workers int) (*placement.P, error) {
	return placement.NearestAssignmentParallel(t, w, r.CopySets(), workers)
}
