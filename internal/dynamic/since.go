package dynamic

import (
	"fmt"
	"math"
	"math/bits"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// SinceFold is what a tracker recorded since each object's last fold:
// per object, which cells (one bit per node) it touched since then, and
// for each touched cell whose count was nonzero at that first touch, that
// count. A cell's count since the fold is its count now less the saved
// count on a touched cell (less zero when none was saved), and zero on
// every other cell. So the state between folds follows the traffic, not
// the table's size: a tracker whose objects are never folded saves no
// count at all, only the bits.
//
// An object whose last-fold row is zero — one never folded while it held
// a count — is marked so: its last-fold row is then known without
// rebuilding it (LastFold returns nil), and a touch saves no count for it,
// since every count it holds came after its last fold.
//
// An object that saves more counts in one window than fit in a row of the
// table (a saved count takes 24 B, a row's cell 16 B) keeps its row as of
// its last fold instead, from its next fold on, as the dense last-fold
// table did: it then saves no count, and each fold copies its recorded
// row into that row. So no object holds more than one row.
//
// A SinceFold holds the objects of one residue class x ≡ r (mod stride),
// the objects one of stride shards owns, indexed by x / stride: the
// shards' states together take one bit per cell whatever their number,
// and no two shards write one cache line. The zero value is not usable;
// see NewSinceFold.
type SinceFold struct {
	objects, nodes, stride int
	// recip is ⌈2^64/stride⌉ for stride >= 2 and 0 for stride 1: for
	// x < 2^32, x / stride is the high word of recip·x, a multiply where a
	// division would cost the record loop a few ns per event.
	recip uint64
	words int      // bitmap words per object
	bits  []uint64 // per owned object, words words
	// saved is the shard's saved counts, one slab reused from its start
	// once no cell is touched, linked per object from objs. Recording
	// allocates only when a window saves more than the slab holds.
	saved []savedCount
	objs  []objSince
	prev  [][]workload.Access // per owned object: its last-fold row, or nil
	// folded marks, per owned object, that its last-fold row holds a
	// count; while it is false the row is zero.
	folded []bool
	cells  int // touched cells
	counts int // saved counts
}

// objSince is one owned object's entry point into the slab, kept in one
// word so that a first touch reads and writes one cache line for it.
type objSince struct {
	// head is 1 + the index of the object's newest saved count, 0 when it
	// has none; each count links to the object's previous one the same
	// way.
	head int32
	// n counts the object's saved counts, or is -1 while it keeps a
	// last-fold row.
	n int32
}

// savedCount is one touched cell's count at its first touch since the
// object's last fold.
type savedCount struct {
	count workload.Access
	node  int32
	next  int32
}

// NewSinceFold returns an empty state for the objects of one residue
// class mod stride out of numObjects (at most 2^32), over numNodes nodes.
func NewSinceFold(numObjects, numNodes, stride int) *SinceFold {
	if numObjects < 0 || numObjects > math.MaxUint32 || numNodes <= 0 || stride < 1 {
		panic(fmt.Sprintf("dynamic: since-fold state for %d objects, %d nodes, stride %d", numObjects, numNodes, stride))
	}
	s := &SinceFold{objects: numObjects, nodes: numNodes, stride: stride, words: (numNodes + 63) / 64}
	if stride > 1 {
		s.recip = ^uint64(0)/uint64(stride) + 1
	}
	owned := (numObjects + stride - 1) / stride
	s.bits = make([]uint64, owned*s.words)
	s.objs = make([]objSince, owned)
	s.prev = make([][]workload.Access, owned)
	s.folded = make([]bool, owned)
	return s
}

// NumObjects, NumNodes and Stride return the dimensions the state was
// built for.
func (s *SinceFold) NumObjects() int { return s.objects }
func (s *SinceFold) NumNodes() int   { return s.nodes }
func (s *SinceFold) Stride() int     { return s.stride }

// local is x's index among the objects of its residue class.
func (s *SinceFold) local(x int) int {
	if s.recip == 0 {
		return x
	}
	hi, _ := bits.Mul64(s.recip, uint64(x))
	return int(hi)
}

// Touch records the first touch since object x's last fold of cell
// (x, v), whose count is count at that moment, and reports whether the
// cell was untouched; a cell already touched keeps its saved count.
func (s *SinceFold) Touch(x int, v tree.NodeID, count workload.Access) bool {
	if v < 0 || int(v) >= s.nodes {
		panic(fmt.Sprintf("dynamic: node %d out of range [0,%d)", v, s.nodes))
	}
	return s.touchLocal(s.local(x), v, count)
}

func (s *SinceFold) touchLocal(li int, v tree.NodeID, count workload.Access) bool {
	k, bit := li*s.words+int(v)>>6, uint64(1)<<(uint(v)&63)
	if s.bits[k]&bit != 0 {
		return false
	}
	s.first(li, k, bit, v, count)
	return true
}

// first marks untouched cell (li, v), bit bit of bits[k], and saves its
// count when it is nonzero and the object keeps no last-fold row.
func (s *SinceFold) first(li, k int, bit uint64, v tree.NodeID, count workload.Access) {
	s.bits[k] |= bit
	s.cells++
	if o := &s.objs[li]; count != (workload.Access{}) && o.n >= 0 {
		s.saved = append(s.saved, savedCount{count: count, node: int32(v), next: o.head})
		o.head = int32(len(s.saved))
		o.n++
		s.counts++
	}
}

// ones counts the set bits of words.
func ones(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// MarkFolded records that object x's last-fold row holds a count, as for
// an object folded while it held one; an object not so marked has a zero
// last-fold row. Forget marks the objects it folds, and a state rebuilt
// from an image (or from a table recorded elsewhere) marks each object
// whose last-fold row has a nonzero cell, before anything is touched.
func (s *SinceFold) MarkFolded(x int) { s.folded[s.local(x)] = true }

// LastFold returns object x's recorded counts as of its last fold, given
// cur, x's row of the table the tracker records into: nil when that row
// is zero (x was never marked folded), so that every count in cur came
// after it; cur itself when x touched no cell since the fold; its
// last-fold row when it keeps one; and otherwise buf, which must have the
// table's width, holding cur with each touched cell's count replaced by
// the count saved at its first touch (zero when none was saved). A cell's
// count since the fold is cur's less the result's. The result is
// read-only, and valid until the state or buf changes.
func (s *SinceFold) LastFold(x int, cur, buf []workload.Access) []workload.Access {
	li := s.local(x)
	if !s.folded[li] {
		return nil
	}
	if p := s.prev[li]; p != nil {
		return p
	}
	touched := s.bits[li*s.words : (li+1)*s.words]
	n := ones(touched)
	if n == 0 {
		return cur
	}
	if len(cur) != s.nodes || len(buf) != s.nodes {
		panic(fmt.Sprintf("dynamic: rows of width %d and %d, table has %d nodes", len(cur), len(buf), s.nodes))
	}
	// Whichever of the touched and the untouched cells are fewer are
	// walked: an object that was never folded has touched every cell it
	// holds.
	if 2*n > s.nodes {
		clear(buf)
		for k, w := range touched {
			for w = ^w; w != 0; w &= w - 1 {
				v := k<<6 + bits.TrailingZeros64(w)
				if v >= s.nodes {
					break
				}
				buf[v] = cur[v]
			}
		}
	} else {
		copy(buf, cur)
		for k, w := range touched {
			for ; w != 0; w &= w - 1 {
				buf[k<<6+bits.TrailingZeros64(w)] = workload.Access{}
			}
		}
	}
	for i := s.objs[li].head; i != 0; i = s.saved[i-1].next {
		e := &s.saved[i-1]
		buf[e.node] = e.count
	}
	return buf
}

// Forget drops the since-fold state of the objects in xs, which were just
// folded, given the table w the tracker records into: an object whose
// folded row holds a count is marked folded, an object that keeps a
// last-fold row copies its recorded row in, and one that saved more
// counts this window than fit in a row starts keeping one. Once no cell
// is touched, the slab is reused from its start.
func (s *SinceFold) Forget(xs []int, w *workload.W) {
	for _, x := range xs {
		li := s.local(x)
		if !s.folded[li] && hasCount(w.Row(x)) {
			s.folded[li] = true
		}
		row := s.bits[li*s.words : (li+1)*s.words]
		s.cells -= ones(row)
		clear(row)
		o := &s.objs[li]
		if o.n < 0 {
			copy(s.prev[li], w.Row(x))
			continue
		}
		s.counts -= int(o.n)
		if 24*int(o.n) > 16*s.nodes {
			s.prev[li] = append([]workload.Access(nil), w.Row(x)...)
			*o = objSince{n: -1}
		} else {
			*o = objSince{}
		}
	}
	if s.cells == 0 {
		// A window that used less than a quarter of the slab (once every
		// heavy object keeps its row, often none of it) gives it back.
		if cap(s.saved) > 4*len(s.saved) {
			s.saved = nil
		} else {
			s.saved = s.saved[:0]
		}
	}
}

// hasCount reports whether row holds a nonzero cell.
func hasCount(row []workload.Access) bool {
	for _, a := range row {
		if a != (workload.Access{}) {
			return true
		}
	}
	return false
}

// Remap returns the state carried onto a tree of numNodes nodes through
// node, which maps each of s's nodes to its new ID or to tree.None when
// it is removed: a surviving cell stays touched, with its saved count,
// a last-fold row is carried cell by cell, a removed node's cells are
// dropped with its counts, and the folded marks are kept.
func (s *SinceFold) Remap(numNodes int, node []tree.NodeID) *SinceFold {
	if len(node) != s.nodes {
		panic(fmt.Sprintf("dynamic: node map for %d nodes, state has %d", len(node), s.nodes))
	}
	ns := NewSinceFold(s.objects, numNodes, s.stride)
	copy(ns.folded, s.folded)
	for li, p := range s.prev {
		if p != nil {
			np := make([]workload.Access, numNodes)
			for v, nv := range node {
				if nv != tree.None {
					np[nv] = p[v]
				}
			}
			ns.prev[li] = np
			ns.objs[li].n = -1
		}
		// Saved counts first: a cell touched with a zero count afterwards
		// is then already touched and keeps its count.
		for i := s.objs[li].head; i != 0; i = s.saved[i-1].next {
			if e := &s.saved[i-1]; node[e.node] != tree.None {
				ns.touchLocal(li, node[e.node], e.count)
			}
		}
		for k, w := range s.bits[li*s.words : (li+1)*s.words] {
			for ; w != 0; w &= w - 1 {
				if nv := node[k<<6+bits.TrailingZeros64(w)]; nv != tree.None {
					ns.touchLocal(li, nv, workload.Access{})
				}
			}
		}
	}
	return ns
}

// Clone returns a deep copy of s.
func (s *SinceFold) Clone() *SinceFold {
	c := *s
	c.bits = append([]uint64(nil), s.bits...)
	c.saved = append([]savedCount(nil), s.saved...)
	c.objs = append([]objSince(nil), s.objs...)
	c.folded = append([]bool(nil), s.folded...)
	c.prev = make([][]workload.Access, len(s.prev))
	for li, p := range s.prev {
		if p != nil {
			c.prev[li] = append([]workload.Access(nil), p...)
		}
	}
	return &c
}

// Cells returns how many cells are touched since their objects' last
// fold, and how many counts are saved for them: one per touched cell whose
// count was nonzero at its first touch, of an object that keeps no
// last-fold row.
func (s *SinceFold) Cells() (touched, saved int) {
	return s.cells, s.counts
}
