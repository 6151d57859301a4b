package core

import (
	"slices"

	"hbn/internal/placement"
)

// objRecords is a record slab one object owns: the Copy records, Share
// entries and copy-list pointers of one of its placement lists, each kind
// in one exact-size backing array (see resize). The solver builds a list
// in its worker's scratch arena (reset for every object) and compacts it
// here, so the records that outlive the call never come from a shared
// arena, and a warm pass whose per-object sizes are unchanged allocates
// nothing.
//
// Every object owns two slabs, because its lists are rewritten at two
// different times: Steps 1–2 rewrite the modified list, the per-object
// finish rewrites the final list. Each rewrite touches only its own slab,
// so a change in the final placement's size never moves the modified
// records that the Step-3 output aliases.
//
// Ownership: the placements the solver hands out point into the slabs and
// stay valid until the object's next rewrite. A rewrite that fits the
// slab's arrays overwrites them in place; one that does not allocates new
// arrays (see resize) and abandons the old ones untouched, so records
// still aliasing them — the previous Step-3 output shares the modified
// list's Share entries — keep their contents.
type objRecords struct {
	copies []placement.Copy
	shares []placement.Share
	lists  []*placement.Copy // lists[i] == &copies[i]
}

// list returns the stored copy list (nil when empty).
func (r *objRecords) list() []*placement.Copy {
	n := len(r.lists)
	if n == 0 {
		return nil
	}
	return r.lists[:n:n]
}

// store replaces the slab's list with l, whose records must live outside
// the slab. A backing array is reallocated only when its object's size no
// longer fits it (see resize).
func (r *objRecords) store(l []*placement.Copy) {
	totShares := 0
	for _, c := range l {
		totShares += len(c.Shares)
	}
	r.copies = resize(r.copies, len(l))
	r.lists = resize(r.lists, len(l))
	r.shares = resize(r.shares, totShares)
	so := 0
	for i, c := range l {
		var sh []placement.Share
		if n := len(c.Shares); n > 0 {
			sh = r.shares[so : so+n : so+n]
			copy(sh, c.Shares)
			so += n
		}
		r.copies[i] = placement.Copy{Object: c.Object, Node: c.Node, Shares: sh}
		r.lists[i] = &r.copies[i]
	}
}

// resize returns s with length n, reusing its array while n fits and
// fills at least 7/8 of the capacity; otherwise it allocates a fresh one.
// A fresh array exposes the whole size-class block the allocator hands out
// for n elements — the block a plain make(n) occupies as well — so a slab
// that grows within its block is rewritten in place; where that block is
// more than 1/8 larger than n the capacity is capped at n, so a fresh array
// always passes the reuse test. A reused array thus holds at most 1/8 of
// dead capacity. Elements past the length are kept zero: a shrink clears
// the tail so stale records pin nothing.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) && n*8 >= cap(s)*7 {
		if n < len(s) {
			clear(s[n:])
		}
		return s[:n]
	}
	s = slices.Grow([]T(nil), n)
	if n*8 < cap(s)*7 {
		return s[:n:n]
	}
	return s[:n]
}
