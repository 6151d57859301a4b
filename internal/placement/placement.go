// Package placement represents (possibly redundant) placements of shared
// data objects and computes the exact load and congestion they induce,
// following the definitions of Section 1.1 of the paper:
//
//   - a read request from node P to object x loads every edge on the path
//     from P to its reference copy c(P,x) by one;
//   - a write request loads every edge on the path from P to c(P,x) by one
//     AND every edge of the Steiner tree connecting the copy set P_x by one
//     (the update broadcast);
//   - the load of a bus is half the sum of the loads of its incident edges;
//   - relative load divides by bandwidth; congestion is the maximum
//     relative load over all edges and buses.
package placement

import (
	"fmt"
	"slices"
	"sort"

	"hbn/internal/par"
	"hbn/internal/ratio"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Share is a portion of one node's demand for one object assigned to a
// particular copy. The deletion algorithm's splitting step (Observation
// 3.2) may split a single node's demand across several copies; shares make
// that representable while keeping loads exact.
type Share struct {
	Node   tree.NodeID
	Reads  int64
	Writes int64
}

// Total returns the number of requests in the share.
func (s Share) Total() int64 { return s.Reads + s.Writes }

// Copy is one copy of an object together with the demand it serves.
type Copy struct {
	Object int
	Node   tree.NodeID
	Shares []Share
}

// Served returns s(c): the number of read and write requests served by c.
func (c *Copy) Served() int64 {
	var s int64
	for _, sh := range c.Shares {
		s += sh.Total()
	}
	return s
}

// P is a placement: for every object, the copies with their assigned
// demand shares. Invariant: every active (object, node) demand of the
// originating workload is covered exactly once by the union of shares.
type P struct {
	NumObjects int
	Copies     [][]*Copy // indexed by object
}

// New returns an empty placement for numObjects objects.
func New(numObjects int) *P {
	return &P{NumObjects: numObjects, Copies: make([][]*Copy, numObjects)}
}

// Add appends a copy.
func (p *P) Add(c *Copy) {
	p.Copies[c.Object] = append(p.Copies[c.Object], c)
}

// CopyNodes returns the distinct nodes holding copies of object x, sorted.
func (p *P) CopyNodes(x int) []tree.NodeID {
	seen := map[tree.NodeID]bool{}
	for _, c := range p.Copies[x] {
		seen[c.Node] = true
	}
	out := make([]tree.NodeID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalCopies returns the total number of copy records.
func (p *P) TotalCopies() int {
	n := 0
	for _, cs := range p.Copies {
		n += len(cs)
	}
	return n
}

// Validate checks that p exactly covers the demand of w: every (object,
// node) pair's reads and writes appear in shares exactly once, shares are
// non-negative, and every object with demand has at least one copy.
func (p *P) Validate(t *tree.Tree, w *workload.W) error {
	return p.ValidateParallel(t, w, 1)
}

// ValidateParallel is Validate sharding the per-object checks over workers
// (<= 0 means GOMAXPROCS). The reported error is the same one sequential
// validation finds first.
func (p *P) ValidateParallel(t *tree.Tree, w *workload.W, workers int) error {
	if p.NumObjects != w.NumObjects() {
		return fmt.Errorf("placement: %d objects, workload has %d", p.NumObjects, w.NumObjects())
	}
	workers = par.Workers(workers)
	type scratch struct {
		reads, writes []int64
	}
	scr := make([]*scratch, workers)
	errs := make([]error, p.NumObjects)
	par.ForEach(workers, p.NumObjects, func(wk, x int) {
		s := scr[wk]
		if s == nil {
			size := t.Len()
			if w.NumNodes() > size {
				size = w.NumNodes()
			}
			s = &scratch{reads: make([]int64, size), writes: make([]int64, size)}
			scr[wk] = s
		}
		support := 0
		for _, a := range w.Row(x) {
			if a.Reads|a.Writes != 0 {
				support++
			}
		}
		errs[x] = p.validateObject(t, w, x, support, s.reads, s.writes)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ValidateObject checks one object of p against w using caller-provided
// tally scratch of length >= max(t.Len(), w.NumNodes()), all-zero on entry
// and re-zeroed before returning. support is the number of nodes whose
// row entry for x is nonzero (the length of its workload.Support). It is
// the per-object core of ValidateParallel, exported for incremental
// callers that re-validate only the objects they touched.
func (p *P) ValidateObject(t *tree.Tree, w *workload.W, x, support int, reads, writes []int64) error {
	return p.validateObject(t, w, x, support, reads, writes)
}

// validateObject checks one object against scratch tally arrays; the
// arrays must be all-zero on entry and are re-zeroed before returning (on
// every path). A mismatch can only sit on a share node or a node with
// demand, so the check reads the row at the share nodes alone and counts
// the nodes with demand it saw: when all match and none is missing, the
// object is covered, at a cost that follows its shares rather than |V|.
// Otherwise the row is scanned in ID order for the lowest mismatch.
func (p *P) validateObject(t *tree.Tree, w *workload.W, x, support int, reads, writes []int64) (err error) {
	defer func() {
		for _, c := range p.Copies[x] {
			for _, sh := range c.Shares {
				if sh.Node >= 0 && int(sh.Node) < len(reads) {
					reads[sh.Node], writes[sh.Node] = 0, 0
				}
			}
		}
	}()
	for _, c := range p.Copies[x] {
		if c.Object != x {
			return fmt.Errorf("placement: copy filed under object %d claims object %d", x, c.Object)
		}
		if c.Node < 0 || int(c.Node) >= t.Len() {
			return fmt.Errorf("placement: object %d copy on out-of-range node %d", x, c.Node)
		}
		for _, sh := range c.Shares {
			if sh.Reads < 0 || sh.Writes < 0 {
				return fmt.Errorf("placement: object %d has negative share %+v", x, sh)
			}
			if sh.Node < 0 || int(sh.Node) >= len(reads) {
				return fmt.Errorf("placement: object %d share on out-of-range node %d", x, sh.Node)
			}
			reads[sh.Node] += sh.Reads
			writes[sh.Node] += sh.Writes
		}
	}
	// Check each share node once against the row, flipping its read
	// tally (non-negative, so the flip is negative) to mark it checked.
	row := w.Row(x)
	covered, match := 0, true
	for _, c := range p.Copies[x] {
		for _, sh := range c.Shares {
			v := sh.Node
			if reads[v] < 0 || int(v) >= len(row) {
				continue
			}
			if a := row[v]; reads[v] != a.Reads || writes[v] != a.Writes {
				match = false
			} else if a.Reads|a.Writes != 0 {
				covered++
			}
			reads[v] = ^reads[v]
		}
	}
	if !match || covered != support {
		for _, c := range p.Copies[x] {
			for _, sh := range c.Shares {
				if reads[sh.Node] < 0 {
					reads[sh.Node] = ^reads[sh.Node]
				}
			}
		}
		for v, a := range row {
			if reads[v] != a.Reads || writes[v] != a.Writes {
				return fmt.Errorf("placement: object %d node %d covers (r=%d,w=%d), workload has (r=%d,w=%d)",
					x, v, reads[v], writes[v], a.Reads, a.Writes)
			}
		}
	}
	if len(p.Copies[x]) == 0 && w.TotalWeight(x) > 0 {
		return fmt.Errorf("placement: object %d has demand but no copies", x)
	}
	return nil
}

// LeafOnly reports whether every copy sits on a leaf of t, the feasibility
// condition of the hierarchical bus model.
func (p *P) LeafOnly(t *tree.Tree) bool {
	for _, cs := range p.Copies {
		for _, c := range cs {
			if !t.IsLeaf(c.Node) {
				return false
			}
		}
	}
	return true
}

// MergePerNode merges copies of the same object residing on the same node
// into a single copy (concatenating shares). The mapping algorithm can
// strand several split copies on one leaf; merging is load-neutral for
// path loads and can only shrink Steiner trees.
func (p *P) MergePerNode() *P {
	return p.MergePerNodeParallel(0, 1)
}

// MergePerNodeParallel is MergePerNode sharding the per-object merges over
// workers (<= 0 means GOMAXPROCS). numNodes bounds the node IDs appearing
// in p (pass t.Len(); 0 derives it from the copies).
func (p *P) MergePerNodeParallel(numNodes, workers int) *P {
	if numNodes == 0 {
		for _, cs := range p.Copies {
			for _, c := range cs {
				if int(c.Node) >= numNodes {
					numNodes = int(c.Node) + 1
				}
			}
		}
	}
	out := New(p.NumObjects)
	workers = par.Workers(workers)
	byNodes := make([][]*Copy, workers)
	counts := make([][]int32, workers)
	par.ForEach(workers, p.NumObjects, func(wk, x int) {
		if byNodes[wk] == nil {
			byNodes[wk] = make([]*Copy, numNodes)
			counts[wk] = make([]int32, numNodes)
		}
		out.Copies[x] = MergeObject(x, p.Copies[x], byNodes[wk], counts[wk], nil)
	})
	return out
}

// MergeObject merges one object's copies per node (the per-object core of
// MergePerNode): copies sharing a node become a single copy whose shares
// are concatenated in input order, and the merged list is sorted by node.
// byNode and counts are scratch of length > max node ID, all-nil/zero on
// entry and reset before returning; records come from a (nil = heap).
func MergeObject(x int, cs []*Copy, byNode []*Copy, counts []int32, a *Arena) []*Copy {
	if len(cs) == 0 {
		return nil
	}
	merged := a.NewCopyList(len(cs))
	for _, c := range cs {
		if byNode[c.Node] == nil {
			m := a.NewCopy(x, c.Node, nil)
			byNode[c.Node] = m
			merged = append(merged, m)
		}
		counts[c.Node] += int32(len(c.Shares))
	}
	for _, m := range merged {
		m.Shares = a.NewShares(int(counts[m.Node]))
	}
	for _, c := range cs {
		m := byNode[c.Node]
		m.Shares = append(m.Shares, c.Shares...)
	}
	for _, m := range merged {
		byNode[m.Node] = nil
		counts[m.Node] = 0
	}
	slices.SortFunc(merged, func(a, b *Copy) int { return int(a.Node - b.Node) })
	return merged
}

// assignObject builds object x's copy list from its copy-node set and a
// reference assignment (ref[v] names the copy serving node v), serving the
// nodes of sup, the support of x's row, and appending each copy's shares
// in node ID order. byNode and counts are scratch of length >= t.Len(),
// all-nil/zero on entry and reset before returning on every path. Records
// are allocated from a (nil falls back to the heap).
func assignObject(x int, sup *workload.Support, copyNodes []tree.NodeID, ref []tree.NodeID, byNode []*Copy, counts []int32, a *Arena) ([]*Copy, error) {
	out := a.NewCopyList(len(copyNodes))
	reset := func() {
		for _, c := range out {
			byNode[c.Node] = nil
			counts[c.Node] = 0
		}
	}
	for _, v := range copyNodes {
		if v < 0 || int(v) >= len(byNode) {
			reset()
			return nil, fmt.Errorf("placement: object %d lists out-of-range node %d", x, v)
		}
		if byNode[v] != nil {
			reset()
			return nil, fmt.Errorf("placement: object %d lists node %d twice", x, v)
		}
		c := a.NewCopy(x, v, nil)
		byNode[v] = c
		out = append(out, c)
	}
	// The first pass sizes each copy's share list exactly (incrementally
	// grown share appends dominated this function's cost), the second
	// fills them.
	for i, v := range sup.Nodes {
		if sup.Acc[i].Total() == 0 {
			continue
		}
		r := ref[v]
		var c *Copy
		if r >= 0 && int(r) < len(byNode) {
			c = byNode[r]
		}
		if c == nil {
			reset()
			return nil, fmt.Errorf("placement: object %d node %d references %d, which holds no copy", x, v, r)
		}
		counts[c.Node]++
	}
	for _, c := range out {
		if n := counts[c.Node]; n > 0 {
			c.Shares = a.NewShares(int(n))
		}
	}
	for i, v := range sup.Nodes {
		if acc := sup.Acc[i]; acc.Total() != 0 {
			c := byNode[ref[v]]
			c.Shares = append(c.Shares, Share{Node: v, Reads: acc.Reads, Writes: acc.Writes})
		}
	}
	reset()
	return out, nil
}

// FromAssignment builds a placement from an explicit copy-set and
// reference-copy assignment: copies[x] lists the nodes holding object x and
// ref[x][v] names the copy serving node v (ignored when v has no demand).
func FromAssignment(t *tree.Tree, w *workload.W, copies [][]tree.NodeID, ref [][]tree.NodeID) (*P, error) {
	p := New(w.NumObjects())
	byNode := make([]*Copy, t.Len())
	counts := make([]int32, t.Len())
	var sup workload.Support
	for x := 0; x < w.NumObjects(); x++ {
		w.SupportInto(x, &sup)
		cs, err := assignObject(x, &sup, copies[x], ref[x], byNode, counts, nil)
		if err != nil {
			return nil, err
		}
		if len(cs) > 0 {
			p.Copies[x] = cs
		}
	}
	return p, nil
}

// NearestAssignment builds the placement in which every requesting node is
// served by its nearest copy (the paper's convention for the nibble
// placement). copies[x] must be non-empty for every object with demand.
func NearestAssignment(t *tree.Tree, w *workload.W, copies [][]tree.NodeID) (*P, error) {
	return NearestAssignmentParallel(t, w, copies, 1)
}

// AssignScratch bundles the reusable state of per-object nearest-copy
// assignment: the closure of the object's support and copy nodes, the
// nearest-copy table of the search over it, its queue, the by-node/count
// tallies and a support buffer. One scratch serves many NearestObject
// calls without allocating beyond the records themselves; it is not safe
// for concurrent use.
type AssignScratch struct {
	byNode  []*Copy
	counts  []int32
	cl      *tree.Closure
	nearest []tree.NodeID // valid on the current closure only
	queue   []tree.NodeID
	sup     workload.Support
}

// NewAssignScratch returns an AssignScratch for trees of t's size.
func NewAssignScratch(t *tree.Tree) *AssignScratch {
	return &AssignScratch{
		byNode:  make([]*Copy, t.Len()),
		counts:  make([]int32, t.Len()),
		cl:      tree.NewClosure(t.Rooted0()),
		nearest: make([]tree.NodeID, t.Len()),
	}
}

// NearestObject builds object x's copy list with nearest-copy assignment
// from the support sup of its row, allocating the records from a (nil
// falls back to the heap). Shares are appended in node ID order, and each
// requesting node is served by the copy a multi-source BFS from
// copyNodes, in their order, reaches first — the same copy, ties
// included, as a BFS over the whole tree (tree.NearestInSet), because
// the search runs over the closure of the support and the copies, which
// holds every shortest path between two of its nodes. The cost follows
// the closure, not |V|. It is the scratch-reusing per-object core of
// NearestAssignmentParallel.
func (s *AssignScratch) NearestObject(t *tree.Tree, x int, sup *workload.Support, copyNodes []tree.NodeID, a *Arena) ([]*Copy, error) {
	if len(copyNodes) == 0 {
		if sup.Total == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("placement: object %d has demand but no copies", x)
	}
	for _, v := range copyNodes {
		if v < 0 || int(v) >= len(s.byNode) {
			return nil, fmt.Errorf("placement: object %d lists out-of-range node %d", x, v)
		}
	}
	cl := s.cl
	cl.Reset()
	for _, v := range sup.Nodes {
		cl.Add(v)
	}
	for _, v := range copyNodes {
		cl.Add(v)
	}
	nearest := s.nearest
	for _, v := range cl.Nodes() {
		nearest[v] = tree.None
	}
	queue := s.queue[:0]
	for _, v := range copyNodes {
		if nearest[v] == tree.None {
			nearest[v] = v
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range t.Adj(v) {
			if cl.Has(h.To) && nearest[h.To] == tree.None {
				nearest[h.To] = nearest[v]
				queue = append(queue, h.To)
			}
		}
	}
	s.queue = queue[:0]
	return assignObject(x, sup, copyNodes, nearest, s.byNode, s.counts, a)
}

// NearestAssignmentParallel is NearestAssignment sharding the per-object
// multi-source BFS and share assignment over workers (<= 0 means
// GOMAXPROCS), with per-worker scratch. The output is bit-identical to
// the sequential build.
func NearestAssignmentParallel(t *tree.Tree, w *workload.W, copies [][]tree.NodeID, workers int) (*P, error) {
	workers = par.Workers(workers)
	scr := make([]*AssignScratch, workers)
	p := New(w.NumObjects())
	errs := make([]error, w.NumObjects())
	par.ForEach(workers, w.NumObjects(), func(wk, x int) {
		s := scr[wk]
		if s == nil {
			s = NewAssignScratch(t)
			scr[wk] = s
		}
		w.SupportInto(x, &s.sup)
		cs, err := s.NearestObject(t, x, &s.sup, copies[x], nil)
		if err != nil {
			errs[x] = err
			return
		}
		if len(cs) > 0 {
			p.Copies[x] = cs
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ReassignNearest rebuilds p so that every demand share is served by the
// nearest node currently holding a copy of its object, keeping the copy
// sets fixed. Used by the ablation experiments: the mapping algorithm's
// forwarding assignment is what the analysis bounds; nearest-copy
// reassignment never increases the total communication load (every
// request's path gets shortest-possible), though individual edges may gain
// load, so congestion usually — not provably — improves.
func (p *P) ReassignNearest(t *tree.Tree, w *workload.W) (*P, error) {
	return p.ReassignNearestParallel(t, w, 1)
}

// ReassignNearestParallel is ReassignNearest sharding the per-object
// assignment over workers (<= 0 means GOMAXPROCS).
func (p *P) ReassignNearestParallel(t *tree.Tree, w *workload.W, workers int) (*P, error) {
	copies := make([][]tree.NodeID, p.NumObjects)
	for x := range copies {
		copies[x] = p.CopyNodes(x)
	}
	return NearestAssignmentParallel(t, w, copies, workers)
}

// Ratio re-exported for callers that already import placement.
type Congestion = ratio.R
