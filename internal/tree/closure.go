package tree

import (
	"math/bits"
	"slices"
)

// Closure builds ancestor closures of node sets: the closure of a set is
// the set plus all its ancestors under an orientation. A per-object step
// whose input touches only a few nodes (the nodes with demand, the copy
// nodes) works on the closure of those nodes instead of on all of V: the
// closure is connected, holds the root, and holds every shortest path
// between two of its nodes, since such a path runs through their LCA, an
// ancestor of both. Outside the closure every subtree is free of the set.
//
// A Closure is reusable scratch. Reset starts a new set in O(1) by
// advancing a generation stamp, so no per-set clear is needed, and Add
// stops each upward walk at the first node already in the closure, so a
// closure of c nodes costs O(c) to build and O(c log c) to sort, whatever
// the depth of the tree. Not safe for concurrent use; parallel stages hold
// one per worker.
type Closure struct {
	r     *Rooted
	mark  []uint32 // node -> generation of the closure holding it
	gen   uint32
	nodes []NodeID // the current closure, in insertion order
	ids   []NodeID // ByID's output
	pos   []int32  // Preorder's output
}

// NewClosure returns an empty Closure under the orientation r.
func NewClosure(r *Rooted) *Closure {
	return &Closure{r: r, mark: make([]uint32, len(r.Parent))}
}

// Reset empties the closure.
func (c *Closure) Reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.mark)
		c.gen = 1
	}
	c.nodes = c.nodes[:0]
}

// Add adds v and all its ancestors.
func (c *Closure) Add(v NodeID) {
	parent := c.r.Parent
	for v != None && c.mark[v] != c.gen {
		c.mark[v] = c.gen
		c.nodes = append(c.nodes, v)
		v = parent[v]
	}
}

// Has reports whether v is in the closure.
func (c *Closure) Has(v NodeID) bool { return c.mark[v] == c.gen }

// Nodes returns the closure in the order Add reached its nodes. The slice
// is valid until the next Reset.
func (c *Closure) Nodes() []NodeID { return c.nodes }

// dense reports whether a sorted view is cheaper to build by scanning all
// n nodes than by sorting the closure's c nodes (c·log c against n).
func (c *Closure) dense() bool {
	k := len(c.nodes)
	return k*bits.Len(uint(k)) > len(c.mark)
}

// ByID returns the closure in increasing ID order. The slice is valid
// until the next ByID or Reset.
func (c *Closure) ByID() []NodeID {
	out := c.ids[:0]
	if c.dense() {
		for v, g := range c.mark {
			if g == c.gen {
				out = append(out, NodeID(v))
			}
		}
	} else {
		out = append(out, c.nodes...)
		slices.Sort(out)
	}
	c.ids = out
	return out
}

// Preorder returns the preorder positions (see Rooted.Pos) of the closure
// in increasing order, so parents come before children and a backward
// walk folds children into parents. A non-empty closure starts with the
// root's position 0. The slice is valid until the next Preorder or Reset.
func (c *Closure) Preorder() []int32 {
	out := c.pos[:0]
	if c.dense() {
		for p, s := range c.r.Steps() {
			if c.mark[s.V] == c.gen {
				out = append(out, int32(p))
			}
		}
	} else {
		pos := c.r.Pos()
		for _, v := range c.nodes {
			out = append(out, pos[v])
		}
		slices.Sort(out)
	}
	c.pos = out
	return out
}
