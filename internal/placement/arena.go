package placement

import "hbn/internal/tree"

// Arena bump-allocates the bulk objects of a solver run — Copy records,
// Share slices and per-object copy lists — from slabs that are recycled
// wholesale by Reset. A warm arena (slabs grown to the workload's high-water
// mark) serves an entire pipeline run without touching the heap.
//
// Growth strategy: when a slab is exhausted mid-run a larger replacement is
// allocated and the old slab is abandoned; records already handed out keep
// the abandoned slab alive, so outstanding pointers stay valid. After Reset
// the (largest) slab is reused from the start, so steady-state runs
// allocate nothing.
//
// Everything an arena hands out is invalidated by the next Reset: callers
// own the memory only until then. A nil *Arena is valid and falls back to
// ordinary heap allocation, so code paths can be written once and callers
// opt in to reuse.
type Arena struct {
	copies []Copy
	shares []Share
	lists  []*Copy
	nc     int
	ns     int
	nl     int
}

// Reset recycles every slab. All memory previously handed out becomes
// invalid (it will be overwritten by subsequent allocations).
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	// Zero the used part of the list slab: NewCopyList hands out
	// zero-length slices that are grown with append, and stale pointers
	// from the previous run must not keep dead placements reachable (nor be
	// observable through re-sliced spare capacity). Only the first nl
	// entries of the current slab were handed out since the last Reset, so
	// a per-object reset costs the object's size, not the slab's.
	clear(a.lists[:a.nl])
	a.nc, a.ns, a.nl = 0, 0, 0
}

// NewCopy returns a Copy initialized to the given fields.
func (a *Arena) NewCopy(object int, node tree.NodeID, shares []Share) *Copy {
	if a == nil {
		return &Copy{Object: object, Node: node, Shares: shares}
	}
	if a.nc == len(a.copies) {
		n := 2 * len(a.copies)
		if n < 512 {
			n = 512
		}
		a.copies = make([]Copy, n)
		a.nc = 0
	}
	c := &a.copies[a.nc]
	a.nc++
	c.Object, c.Node, c.Shares = object, node, shares
	return c
}

// NewShares returns an empty Share slice with the given capacity. Appends
// beyond the capacity fall back to the heap (and detach from the arena), so
// callers should size exactly where they can.
func (a *Arena) NewShares(capacity int) []Share {
	if capacity <= 0 {
		return nil
	}
	if a == nil {
		return make([]Share, 0, capacity)
	}
	if a.ns+capacity > len(a.shares) {
		n := 2 * len(a.shares)
		if n < 1024 {
			n = 1024
		}
		if n < capacity {
			n = capacity
		}
		a.shares = make([]Share, n)
		a.ns = 0
	}
	s := a.shares[a.ns : a.ns : a.ns+capacity]
	a.ns += capacity
	return s
}

// NewCopyList returns an empty []*Copy with the given capacity, for
// per-object copy lists.
func (a *Arena) NewCopyList(capacity int) []*Copy {
	if capacity <= 0 {
		return nil
	}
	if a == nil {
		return make([]*Copy, 0, capacity)
	}
	if a.nl+capacity > len(a.lists) {
		n := 2 * len(a.lists)
		if n < 512 {
			n = 512
		}
		if n < capacity {
			n = capacity
		}
		a.lists = make([]*Copy, n)
		a.nl = 0
	}
	l := a.lists[a.nl : a.nl : a.nl+capacity]
	a.nl += capacity
	return l
}
