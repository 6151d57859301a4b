// Package tree implements the network model of the paper: weighted trees
// whose leaves are processors and whose inner nodes are buses, connected by
// switches (edges) with bandwidths.
//
// A Tree is immutable once built (see Builder). Algorithms that need a
// rooted orientation derive a Rooted view, which carries parent pointers,
// depths, levels, a preorder traversal and a lazily built O(1) LCA index;
// the nibble strategy roots the tree at a per-object gravity center, so
// rooted views are cheap and independent of the Tree itself. The canonical
// node-0 orientation is cached on the Tree (Rooted0) because every
// evaluation pass and gravity-center search uses it.
package tree

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node of a Tree. IDs are dense, starting at 0, in the
// order nodes were added to the Builder.
type NodeID int32

// EdgeID identifies an undirected edge of a Tree. IDs are dense, starting
// at 0, in the order edges were added to the Builder.
type EdgeID int32

// None is the sentinel "no node" value (used for the root's parent).
const None NodeID = -1

// NoEdge is the sentinel "no edge" value.
const NoEdge EdgeID = -1

// Kind distinguishes processors (leaves, can store object copies) from
// buses (inner nodes, cannot store copies).
type Kind uint8

const (
	// Processor nodes are the leaves of a hierarchical bus network and the
	// only nodes allowed to hold copies of shared data objects.
	Processor Kind = iota
	// Bus nodes are the inner nodes; their load is half the sum of the
	// loads of their incident edges.
	Bus
)

// String returns "processor" or "bus".
func (k Kind) String() string {
	switch k {
	case Processor:
		return "processor"
	case Bus:
		return "bus"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Half is one adjacency entry: the neighbor reached and the edge crossed.
type Half struct {
	To   NodeID
	Edge EdgeID
}

type node struct {
	kind Kind
	name string
	bw   int64 // bus bandwidth; unused (1) for processors
	adj  []Half
}

type edge struct {
	u, v NodeID
	bw   int64
}

// Tree is an immutable weighted tree. Use a Builder to construct one.
type Tree struct {
	nodes  []node
	edges  []edge
	leaves []NodeID
	inner  []NodeID
	buses  []NodeID
	maxDeg int

	rooted0   atomic.Pointer[Rooted]
	rooted0Mu sync.Mutex
}

// Rooted0 returns the tree's shared orientation towards node 0, built
// lazily on first use. The returned value is read-only and shared by all
// callers (safe: Rooted methods never mutate after construction and the
// lazy LCA index build is synchronized); it must never be passed to
// RootedInto. Hot paths that would otherwise re-derive the canonical
// orientation per call use this.
func (t *Tree) Rooted0() *Rooted {
	if r := t.rooted0.Load(); r != nil {
		return r
	}
	t.rooted0Mu.Lock()
	defer t.rooted0Mu.Unlock()
	if r := t.rooted0.Load(); r != nil {
		return r
	}
	r := t.Rooted(0)
	t.rooted0.Store(r)
	return r
}

// Len returns the number of nodes |P ∪ B|.
func (t *Tree) Len() int { return len(t.nodes) }

// NumEdges returns the number of edges (always Len()-1 for a tree).
func (t *Tree) NumEdges() int { return len(t.edges) }

// Kind returns the kind of node v.
func (t *Tree) Kind(v NodeID) Kind { return t.nodes[v].kind }

// Name returns the human-readable name of node v (may be empty).
func (t *Tree) Name(v NodeID) string {
	n := t.nodes[v].name
	if n == "" {
		return fmt.Sprintf("%s%d", map[Kind]string{Processor: "p", Bus: "b"}[t.nodes[v].kind], v)
	}
	return n
}

// NameRaw returns the name node v was built with, which may be empty.
// Name synthesizes a stable fallback for display; code that rebuilds a
// tree node-for-node (the topology reconfiguration subsystem) uses the raw
// name so unnamed nodes stay unnamed across the rebuild.
func (t *Tree) NameRaw(v NodeID) string { return t.nodes[v].name }

// NodeBandwidth returns the bandwidth of node v. It is meaningful for
// buses; for processors it is 1.
func (t *Tree) NodeBandwidth(v NodeID) int64 { return t.nodes[v].bw }

// EdgeBandwidth returns the bandwidth of edge e.
func (t *Tree) EdgeBandwidth(e EdgeID) int64 { return t.edges[e].bw }

// Endpoints returns the two endpoints of edge e, in builder order.
func (t *Tree) Endpoints(e EdgeID) (NodeID, NodeID) { return t.edges[e].u, t.edges[e].v }

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (t *Tree) Other(e EdgeID, v NodeID) NodeID {
	ed := t.edges[e]
	switch v {
	case ed.u:
		return ed.v
	case ed.v:
		return ed.u
	}
	panic(fmt.Sprintf("tree: node %d is not an endpoint of edge %d", v, e))
}

// Adj returns the adjacency list of v. The returned slice must not be
// modified.
func (t *Tree) Adj(v NodeID) []Half { return t.nodes[v].adj }

// Degree returns the number of edges incident to v.
func (t *Tree) Degree(v NodeID) int { return len(t.nodes[v].adj) }

// MaxDegree returns the maximum degree over all nodes (at least 1 for
// trees with an edge; 0 for a single-node tree).
func (t *Tree) MaxDegree() int { return t.maxDeg }

// IsLeaf reports whether v has degree <= 1. In a valid hierarchical bus
// network leaves are exactly the processors.
func (t *Tree) IsLeaf(v NodeID) bool { return len(t.nodes[v].adj) <= 1 }

// Leaves returns the leaf nodes in increasing ID order. The returned slice
// must not be modified.
func (t *Tree) Leaves() []NodeID { return t.leaves }

// Inner returns the inner (non-leaf) nodes in increasing ID order. The
// returned slice must not be modified.
func (t *Tree) Inner() []NodeID { return t.inner }

// Buses returns the bus nodes in increasing ID order. The returned slice
// must not be modified.
func (t *Tree) Buses() []NodeID { return t.buses }

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// EdgeBetween returns the edge joining u and v, if any.
func (t *Tree) EdgeBetween(u, v NodeID) (EdgeID, bool) {
	a, b := u, v
	if t.Degree(a) > t.Degree(b) {
		a, b = b, a // scan the smaller adjacency list
	}
	for _, h := range t.nodes[a].adj {
		if h.To == b {
			return h.Edge, true
		}
	}
	return NoEdge, false
}

// Validate checks structural invariants that Builder.Build already
// guarantees; it exists so that decoded trees (see Decode) get the same
// guarantees. It returns nil for a well-formed tree.
func (t *Tree) Validate() error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("tree: empty")
	}
	if len(t.edges) != n-1 {
		return fmt.Errorf("tree: %d nodes but %d edges; want %d", n, len(t.edges), n-1)
	}
	for i, e := range t.edges {
		if e.u < 0 || int(e.u) >= n || e.v < 0 || int(e.v) >= n {
			return fmt.Errorf("tree: edge %d joins out-of-range nodes (%d,%d)", i, e.u, e.v)
		}
		if e.u == e.v {
			return fmt.Errorf("tree: edge %d is a self-loop on node %d", i, e.u)
		}
		if e.bw < 1 {
			return fmt.Errorf("tree: edge %d has bandwidth %d < 1", i, e.bw)
		}
	}
	for v := range t.nodes {
		if t.nodes[v].kind == Bus && t.nodes[v].bw < 1 {
			return fmt.Errorf("tree: bus %d has bandwidth %d < 1", v, t.nodes[v].bw)
		}
	}
	// Connectivity: BFS from node 0 must reach all nodes. With exactly n-1
	// edges and no self-loops, connectivity also implies acyclicity.
	seen := make([]bool, n)
	queue := []NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range t.nodes[v].adj {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				queue = append(queue, h.To)
			}
		}
	}
	if count != n {
		return fmt.Errorf("tree: not connected (%d of %d nodes reachable)", count, n)
	}
	return nil
}

// ValidateHBN checks the additional hierarchical-bus-network contract from
// the paper: every leaf is a processor, every inner node is a bus, and
// every processor↔bus switch has bandwidth exactly 1 ("the slowest part of
// the system"). A single-node tree consisting of one processor is allowed.
func (t *Tree) ValidateHBN() error {
	if err := t.Validate(); err != nil {
		return err
	}
	for v := range t.nodes {
		id := NodeID(v)
		leaf := t.IsLeaf(id)
		kind := t.nodes[v].kind
		if leaf && kind != Processor {
			return fmt.Errorf("tree: leaf %d is a %v; leaves must be processors", id, kind)
		}
		if !leaf && kind != Bus {
			return fmt.Errorf("tree: inner node %d is a %v; inner nodes must be buses", id, kind)
		}
	}
	for i, e := range t.edges {
		if t.nodes[e.u].kind == Processor || t.nodes[e.v].kind == Processor {
			if e.bw != 1 {
				return fmt.Errorf("tree: processor switch (edge %d) has bandwidth %d; must be 1", i, e.bw)
			}
		}
	}
	return nil
}

// Height returns the height of the tree when rooted at node 0. The paper's
// height(T) is relative to whatever root an algorithm picks; use Rooted for
// a specific root.
func (t *Tree) Height() int { return t.Rooted(0).Height }
