// Package workload models the access pattern of the static data management
// problem: read and write frequencies h_r, h_w : nodes × objects → N.
//
// In a hierarchical bus network only processors (leaves) issue requests;
// the general tree model of the nibble strategy permits rates on any node,
// so the representation indexes by node, and ValidateHBN enforces the
// leaf-only restriction where required.
package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"hbn/internal/tree"
)

// Access is the (read, write) frequency of one (node, object) pair.
type Access struct {
	Reads  int64 `json:"r,omitempty"`
	Writes int64 `json:"w,omitempty"`
}

// Total returns Reads + Writes, the paper's h(v) contribution.
func (a Access) Total() int64 { return a.Reads + a.Writes }

// W holds the frequencies for all objects over all nodes of one tree,
// stored densely (objects × nodes).
type W struct {
	objects int
	nodes   int
	acc     []Access
}

// New returns an all-zero workload for numObjects objects over numNodes
// nodes.
func New(numObjects, numNodes int) *W {
	if numObjects < 0 || numNodes <= 0 {
		panic(fmt.Sprintf("workload: invalid dimensions %d×%d", numObjects, numNodes))
	}
	return &W{objects: numObjects, nodes: numNodes, acc: make([]Access, numObjects*numNodes)}
}

// NumObjects returns |X|.
func (w *W) NumObjects() int { return w.objects }

// NumNodes returns the node count the workload was built for.
func (w *W) NumNodes() int { return w.nodes }

func (w *W) idx(x int, v tree.NodeID) int {
	if x < 0 || x >= w.objects || v < 0 || int(v) >= w.nodes {
		panic(fmt.Sprintf("workload: access (%d,%d) out of range %d×%d", x, v, w.objects, w.nodes))
	}
	return x*w.nodes + int(v)
}

// At returns the access frequencies of node v for object x.
func (w *W) At(x int, v tree.NodeID) Access { return w.acc[w.idx(x, v)] }

// Row returns object x's dense per-node access row, indexed by NodeID.
// The returned slice aliases the workload's storage; it exists so
// per-object hot loops avoid the per-node index arithmetic of At. A
// caller that writes through it bypasses Set's check and must keep every
// frequency non-negative itself.
func (w *W) Row(x int) []Access {
	if uint(x) >= uint(w.objects) {
		// A constant message keeps Row small enough to inline into the
		// per-request loops that call it.
		panic("workload: row of an object out of range")
	}
	lo := x * w.nodes
	return w.acc[lo : lo+w.nodes : lo+w.nodes]
}

// Set replaces the access frequencies of node v for object x.
func (w *W) Set(x int, v tree.NodeID, a Access) {
	if a.Reads < 0 || a.Writes < 0 {
		panic("workload: negative frequency")
	}
	w.acc[w.idx(x, v)] = a
}

// AddReads adds n read accesses from v to x.
func (w *W) AddReads(x int, v tree.NodeID, n int64) {
	w.acc[w.idx(x, v)].Reads += n
}

// AddWrites adds n write accesses from v to x.
func (w *W) AddWrites(x int, v tree.NodeID, n int64) {
	w.acc[w.idx(x, v)].Writes += n
}

// AddTrace folds a request trace into the frequencies: one read or write
// access per event. The trace's dimensions must fit the workload's.
func (w *W) AddTrace(events []TraceEvent) {
	for i := range events {
		e := &events[i]
		if e.Write {
			w.AddWrites(e.Object, e.Node, 1)
		} else {
			w.AddReads(e.Object, e.Node, 1)
		}
	}
}

// Kappa returns κ_x, the write contention of object x: the total number of
// write accesses to x over all nodes.
func (w *W) Kappa(x int) int64 {
	var k int64
	base := x * w.nodes
	for i := 0; i < w.nodes; i++ {
		k += w.acc[base+i].Writes
	}
	return k
}

// TotalWeight returns h(T) for object x: all read and write accesses.
func (w *W) TotalWeight(x int) int64 {
	var h int64
	base := x * w.nodes
	for i := 0; i < w.nodes; i++ {
		h += w.acc[base+i].Reads + w.acc[base+i].Writes
	}
	return h
}

// Weights returns the per-node weight vector h(v) = r(v)+w(v) for object x
// (freshly allocated, length NumNodes).
func (w *W) Weights(x int) []int64 {
	dst := make([]int64, w.nodes)
	for v, a := range w.Row(x) {
		dst[v] = a.Total()
	}
	return dst
}

// Support is the sparse form of one object's row, the input of every
// per-object step of the solver: the nodes with a nonzero frequency in
// increasing ID order, their frequencies and weights h(v) = r(v)+w(v),
// and the row's totals. Steps that touch only these nodes and their
// ancestors cost in proportion to the object's traffic, not the network.
type Support struct {
	Nodes []tree.NodeID
	Acc   []Access // Acc[i] is the frequency pair of Nodes[i]
	H     []int64  // H[i] = Acc[i].Total()
	Kappa int64    // κ_x, the row's write total
	Total int64    // h(T), the row's read and write total
}

// SupportInto fills s with object x's support in one scan of its row,
// reusing s's slices.
func (w *W) SupportInto(x int, s *Support) {
	nodes, acc, h := s.Nodes[:0], s.Acc[:0], s.H[:0]
	var kappa, total int64
	for v, a := range w.Row(x) {
		if a.Reads|a.Writes == 0 {
			continue
		}
		nodes = append(nodes, tree.NodeID(v))
		acc = append(acc, a)
		h = append(h, a.Total())
		kappa += a.Writes
		total += a.Total()
	}
	s.Nodes, s.Acc, s.H, s.Kappa, s.Total = nodes, acc, h, kappa, total
}

// Requesters returns the nodes with nonzero weight for object x, in
// increasing ID order.
func (w *W) Requesters(x int) []tree.NodeID {
	var out []tree.NodeID
	base := x * w.nodes
	for i := 0; i < w.nodes; i++ {
		if w.acc[base+i].Total() > 0 {
			out = append(out, tree.NodeID(i))
		}
	}
	return out
}

// ValidateHBN checks that only leaves of t issue requests and that the
// dimensions match t, as required by the hierarchical bus model.
func (w *W) ValidateHBN(t *tree.Tree) error {
	if w.nodes != t.Len() {
		return fmt.Errorf("workload: built for %d nodes, tree has %d", w.nodes, t.Len())
	}
	for x := 0; x < w.objects; x++ {
		if err := w.ValidateHBNObject(t, x); err != nil {
			return err
		}
	}
	return nil
}

// ValidateHBNObject is the per-object core of ValidateHBN (the dimensions
// must already match t), for incremental callers that re-check only the
// objects whose frequencies changed. It reads the inner nodes only.
func (w *W) ValidateHBNObject(t *tree.Tree, x int) error {
	row := w.Row(x)
	for _, v := range t.Inner() {
		if a := row[v]; a.Reads|a.Writes != 0 {
			return fmt.Errorf("workload: inner node %d has accesses to object %d; only processors may issue requests", v, x)
		}
	}
	return nil
}

// Clone returns a deep copy of w.
func (w *W) Clone() *W {
	c := New(w.objects, w.nodes)
	copy(c.acc, w.acc)
	return c
}

type jsonWorkload struct {
	Objects int             `json:"objects"`
	Nodes   int             `json:"nodes"`
	Entries []jsonWorkEntry `json:"entries"`
}

type jsonWorkEntry struct {
	Object int   `json:"x"`
	Node   int32 `json:"v"`
	Reads  int64 `json:"r,omitempty"`
	Writes int64 `json:"w,omitempty"`
}

// Encode writes the workload as sparse JSON.
func Encode(out io.Writer, w *W) error {
	jw := jsonWorkload{Objects: w.objects, Nodes: w.nodes}
	for x := 0; x < w.objects; x++ {
		for v := 0; v < w.nodes; v++ {
			a := w.acc[x*w.nodes+v]
			if a.Total() > 0 {
				jw.Entries = append(jw.Entries, jsonWorkEntry{Object: x, Node: int32(v), Reads: a.Reads, Writes: a.Writes})
			}
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(jw)
}

// Decode reads a workload from the JSON produced by Encode. Malformed
// input — invalid dimensions, out-of-range entries, negative frequencies
// — is rejected with an error (found by FuzzSolve: the accessors panic on
// range violations, which a decoder of untrusted bytes must not).
func Decode(in io.Reader) (*W, error) {
	var jw jsonWorkload
	if err := json.NewDecoder(in).Decode(&jw); err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	if jw.Objects < 0 || jw.Nodes <= 0 {
		return nil, fmt.Errorf("workload: decode: invalid dimensions %d×%d", jw.Objects, jw.Nodes)
	}
	// Cap the dense table so crafted dimensions can neither overflow
	// objects×nodes nor exhaust memory: tiny JSON must not allocate
	// terabytes or wrap the product past the entry bounds checks below.
	const maxCells = 1 << 26
	if jw.Objects > maxCells/jw.Nodes {
		return nil, fmt.Errorf("workload: decode: dimensions %d×%d exceed the %d-cell limit", jw.Objects, jw.Nodes, maxCells)
	}
	w := New(jw.Objects, jw.Nodes)
	for _, e := range jw.Entries {
		if e.Object < 0 || e.Object >= jw.Objects || e.Node < 0 || int(e.Node) >= jw.Nodes {
			return nil, fmt.Errorf("workload: decode: entry (%d,%d) out of range %d×%d", e.Object, e.Node, jw.Objects, jw.Nodes)
		}
		if e.Reads < 0 || e.Writes < 0 {
			return nil, fmt.Errorf("workload: decode: negative frequency for object %d node %d", e.Object, e.Node)
		}
		w.AddReads(e.Object, tree.NodeID(e.Node), e.Reads)
		w.AddWrites(e.Object, tree.NodeID(e.Node), e.Writes)
	}
	return w, nil
}
