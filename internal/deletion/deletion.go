// Package deletion implements Step 2 of the extended-nibble strategy
// (Section 3.2, Figure 4 of the paper): rarely used copies are removed so
// that every surviving copy of object x serves at least κ_x requests, and
// overloaded copies are split so that none serves more than 2κ_x.
//
// Processing is bottom-up over the connected copy subtree T(x): a copy
// serving fewer than κ_x requests is deleted and its demand is inherited by
// the copy on its parent; if the root of T(x) is deleted, its demand moves
// to the nearest surviving copy. Observation 3.2 guarantees the result:
// every copy serves s(c) ∈ [κ_x, 2κ_x], the load of every edge of T(x)
// grows by at most κ_x, and every edge load stays within a factor 2 of
// optimal.
//
// Objects are processed independently, so Run shards them over a worker
// pool with per-worker scratch (Options.Workers); parallel runs are
// bit-identical to sequential ones.
package deletion

import (
	"fmt"
	"slices"

	"hbn/internal/nibble"
	"hbn/internal/par"
	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Options tune the algorithm for the ablation experiments.
type Options struct {
	// SkipSplitting disables the copy-splitting post-pass, leaving copies
	// that serve more than 2κ_x requests intact (ablation E10).
	SkipSplitting bool
	// Workers shards the per-object passes; <= 0 means GOMAXPROCS.
	Workers int
}

// Stats reports what the deletion pass did.
type Stats struct {
	Deleted int // copies removed because s(c) < κ_x
	Splits  int // extra copies created by splitting
	Kept    int // surviving copy records (after splitting)
}

// scratch is the reusable per-worker state of the per-object pass.
type scratch struct {
	byNode []*placement.Copy // len(t.Len()), nil outside the current object
	alive  []bool
	depth  []int32 // distance to the object's gravity center, copy nodes only
	order  []*placement.Copy
	seen   []bool
	queue  []bfsCand

	// Inheritance bookkeeping of the two-phase deletion loop, indexed by
	// copy position (nodeIdx maps node → position): simulated served
	// totals, final share-entry counts, and the per-copy list of copies
	// deleted into it, in deletion order (head/next intrusive lists).
	nodeIdx []int32
	srv     []int64
	cnt     []int32
	kidHead []int32
	kidTail []int32
	kidNext []int32

	// parts is splitAll's reusable chunk-list buffer.
	parts [][]placement.Share
}

func newScratch(n int) *scratch {
	return &scratch{
		byNode:  make([]*placement.Copy, n),
		alive:   make([]bool, n),
		depth:   make([]int32, n),
		seen:    make([]bool, n),
		nodeIdx: make([]int32, n),
		srv:     make([]int64, n),
		cnt:     make([]int32, n),
		kidHead: make([]int32, n),
		kidTail: make([]int32, n),
		kidNext: make([]int32, n),
	}
}

type bfsCand struct {
	node tree.NodeID
	dist int32
}

// Runner is the reusable per-worker state of the deletion pass: one
// scratch set serving many RunObject calls without allocating. Not safe
// for concurrent use; parallel stages hold one Runner per worker.
type Runner struct {
	t *tree.Tree
	s *scratch
}

// NewRunner returns a Runner for t.
func NewRunner(t *tree.Tree) *Runner {
	return &Runner{t: t, s: newScratch(t.Len())}
}

// RunObject runs Step 2 for a single object x: copies is the object's
// nearest-copy nibble placement, which the pass takes over (survivors may
// be re-sliced and get new share lists; the caller must not use the list
// afterwards), op its nibble output, kappa its write contention κ_x, and
// stats accumulates what the pass did. Records are allocated from a (nil
// falls back to the heap). This is the per-object entry point the
// incremental solver re-runs for changed objects.
func (r *Runner) RunObject(x int, op nibble.ObjectPlacement, kappa int64, copies []*placement.Copy, skipSplitting bool, a *placement.Arena, stats *Stats) ([]*placement.Copy, error) {
	out, err := runObject(r.t, copies, op, kappa, stats, r.s, a)
	if err != nil {
		return nil, fmt.Errorf("deletion: object %d: %w", x, err)
	}
	if !skipSplitting {
		out = splitAll(out, kappa, stats, a, r.s)
	}
	stats.Kept += len(out)
	return out, nil
}

// Run executes the deletion algorithm on the nibble placement of (t, w).
// It returns the modified placement (copies may still sit on inner nodes;
// several split copies may share a node) together with statistics.
func Run(t *tree.Tree, w *workload.W, nib *nibble.Result, opts Options) (*placement.P, Stats, error) {
	base, err := nib.PlacementParallel(t, w, par.Workers(opts.Workers))
	if err != nil {
		return nil, Stats{}, err
	}
	return runOnBase(t, w, nib, base, false, opts)
}

// RunShared is Run against a caller-provided materialization of the nibble
// placement (the solver pipeline already holds one), sparing the rebuild.
// base must be nib's nearest-copy placement on (t, w); it is not modified
// (the pass works on per-object clones).
func RunShared(t *tree.Tree, w *workload.W, nib *nibble.Result, base *placement.P, opts Options) (*placement.P, Stats, error) {
	return runOnBase(t, w, nib, base, true, opts)
}

func runOnBase(t *tree.Tree, w *workload.W, nib *nibble.Result, base *placement.P, cloneBase bool, opts Options) (*placement.P, Stats, error) {
	workers := par.Workers(opts.Workers)
	out := placement.New(w.NumObjects())
	scr := make([]*Runner, workers)
	perObj := make([]Stats, w.NumObjects())
	errs := make([]error, w.NumObjects())
	par.ForEach(workers, w.NumObjects(), func(wk, x int) {
		r := scr[wk]
		if r == nil {
			r = NewRunner(t)
			scr[wk] = r
		}
		copies := base.Copies[x]
		if cloneBase {
			copies = cloneCopies(copies, nil)
		}
		// Otherwise Run built the base itself and owns it; no clone.
		copies, err := r.RunObject(x, nib.Objects[x], w.Kappa(x), copies, opts.SkipSplitting, nil, &perObj[x])
		if err != nil {
			errs[x] = err
			return
		}
		out.Copies[x] = copies
	})
	var stats Stats
	for x := range perObj {
		if errs[x] != nil {
			return nil, Stats{}, errs[x]
		}
		stats.Deleted += perObj[x].Deleted
		stats.Splits += perObj[x].Splits
		stats.Kept += perObj[x].Kept
	}
	return out, stats, nil
}

// cloneCopies deep-copies one object's copy records so the pass can mutate
// them (inheriting shares, clearing deleted copies) without touching the
// shared base placement. Records come from a (nil = heap); share slices
// are cloned with exact capacity, so later appends to an heir reallocate
// instead of writing into the original's backing array.
func cloneCopies(in []*placement.Copy, a *placement.Arena) []*placement.Copy {
	if len(in) == 0 {
		return nil
	}
	out := a.NewCopyList(len(in))
	for _, c := range in {
		sh := a.NewShares(len(c.Shares))
		sh = append(sh, c.Shares...)
		out = append(out, a.NewCopy(c.Object, c.Node, sh))
	}
	return out
}

// runObject performs the Figure-4 loop for one object. Copies arrive one
// per node (the nibble placement), already carrying their nearest-copy
// demand shares. The scratch arrays are all-reset on entry and re-reset
// before returning on every path.
func runObject(t *tree.Tree, copies []*placement.Copy, op nibble.ObjectPlacement, kappa int64, stats *Stats, s *scratch, a *placement.Arena) ([]*placement.Copy, error) {
	if len(copies) == 0 {
		return nil, nil
	}
	// κ_x = 0 (read-only object): the test s(c) < κ_x never fires, and the
	// nibble placement gives every requester a local copy, so all loads
	// are zero. We prune zero-traffic copies (a documented, load-neutral
	// deviation) so Step 3 has nothing pointless to move.
	if kappa == 0 {
		kept := a.NewCopyList(len(copies))
		for _, c := range copies {
			if c.Served() > 0 {
				kept = append(kept, c)
			} else {
				stats.Deleted++
			}
		}
		if len(kept) == 0 {
			return nil, nil
		}
		return kept, nil
	}

	// Root T(x) at the object's gravity center (always a member of the
	// copy set) and process levels bottom-up: the paper defines the root
	// to sit on level height(T(x)) and round l handles level-l copies.
	// The orientation towards the gravity center is derived from the
	// shared node-0 rooting instead of a per-object re-rooting: the depth
	// of v is its hop distance to g (O(1) via the LCA index), and the
	// parent of v is its next hop towards g.
	reset := func() {
		for _, c := range copies {
			s.byNode[c.Node] = nil
			s.alive[c.Node] = false
		}
	}
	r0 := t.Rooted0()
	lca := r0.LCAIndex()
	g := op.Gravity
	for i, c := range copies {
		s.byNode[c.Node] = c
		s.alive[c.Node] = true
		l := lca.LCA(c.Node, g)
		s.depth[c.Node] = r0.Depth[c.Node] + r0.Depth[g] - 2*r0.Depth[l]
		s.nodeIdx[c.Node] = int32(i)
		s.srv[i] = c.Served()
		s.cnt[i] = int32(len(c.Shares))
		s.kidHead[i], s.kidTail[i] = -1, -1
	}
	if s.byNode[g] == nil {
		reset()
		return nil, fmt.Errorf("gravity center %d holds no copy", g)
	}
	order := append(s.order[:0], copies...)
	s.order = order
	slices.SortFunc(order, func(a, b *placement.Copy) int {
		if da, db := s.depth[a.Node], s.depth[b.Node]; da != db {
			return int(db - da) // deepest (lowest level) first
		}
		return int(a.Node - b.Node)
	})
	// Phase 1 (decide): the Figure-4 loop on simulated served totals.
	// Deleting c moves its demand to the heir: served and share counts
	// transfer, and c is linked into the heir's inheritance list. No share
	// slice is touched, so the phase allocates nothing.
	for _, c := range order {
		i := s.nodeIdx[c.Node]
		if s.srv[i] >= kappa {
			continue
		}
		// Delete c; its demand moves to the parent copy, or — for the root
		// of T(x) — to the nearest surviving copy.
		var heir *placement.Copy
		if c.Node != g {
			p := nextHopToward(t, r0, lca, c.Node, g)
			heir = s.byNode[p]
			if heir == nil {
				// The copy subtree is connected and rooted at the gravity
				// center, so a parent copy always exists.
				reset()
				return nil, fmt.Errorf("copy on %d has no parent copy on %d", c.Node, p)
			}
		} else {
			heir = nearestAlive(t, c.Node, s)
			if heir == nil {
				// The root cannot be the last copy and still serve fewer
				// than κ_x requests: the root of T(x) would then serve all
				// h(T) ≥ κ_x requests.
				reset()
				return nil, fmt.Errorf("root copy on %d serves %d < κ=%d with no surviving copy", c.Node, s.srv[i], kappa)
			}
		}
		j := s.nodeIdx[heir.Node]
		s.srv[j] += s.srv[i]
		s.cnt[j] += s.cnt[i]
		if s.kidHead[j] < 0 {
			s.kidHead[j] = i
		} else {
			s.kidNext[s.kidTail[j]] = i
		}
		s.kidTail[j] = i
		s.kidNext[i] = -1
		s.alive[c.Node] = false
		s.byNode[c.Node] = nil
		stats.Deleted++
	}
	// Phase 2 (materialize): each survivor that inherited anything gets an
	// exact-size share slice holding its own shares followed by every
	// deleted copy's contribution, recursively, in deletion order — the
	// same flattened order the in-place appends of the one-phase loop
	// produced, now with a single arena allocation per survivor.
	kept := a.NewCopyList(len(order))
	for _, c := range order {
		if s.alive[c.Node] && s.byNode[c.Node] == c {
			if i := s.nodeIdx[c.Node]; s.kidHead[i] >= 0 {
				c.Shares = s.emitShares(copies, a.NewShares(int(s.cnt[i])), i)
			}
			kept = append(kept, c)
		}
	}
	slices.SortFunc(kept, func(a, b *placement.Copy) int { return int(a.Node - b.Node) })
	reset()
	if len(kept) == 0 {
		return nil, nil
	}
	return kept, nil
}

// emitShares appends copy i's final share list to dst: its own shares,
// then each inherited copy's contribution recursively in deletion order.
func (s *scratch) emitShares(copies []*placement.Copy, dst []placement.Share, i int32) []placement.Share {
	dst = append(dst, copies[i].Shares...)
	for k := s.kidHead[i]; k >= 0; k = s.kidNext[k] {
		dst = s.emitShares(copies, dst, k)
	}
	return dst
}

// nextHopToward returns the neighbor of v on the unique path to g, using
// the shared node-0 orientation: when v is not an ancestor of g the path
// starts upward, otherwise it descends into the child subtree containing g
// (the child c with LCA(c, g) = c).
func nextHopToward(t *tree.Tree, r0 *tree.Rooted, lca *tree.LCAIndex, v, g tree.NodeID) tree.NodeID {
	if lca.LCA(v, g) != v {
		return r0.Parent[v]
	}
	for _, h := range t.Adj(v) {
		if h.To != r0.Parent[v] && lca.LCA(h.To, g) == h.To {
			return h.To
		}
	}
	panic(fmt.Sprintf("deletion: no hop from %d towards %d", v, g))
}

// nearestAlive finds the surviving copy nearest to from (ties: smallest
// node ID) by BFS over the tree, using the scratch visit marks and queue.
func nearestAlive(t *tree.Tree, from tree.NodeID, s *scratch) *placement.Copy {
	var best *bfsCand
	queue := append(s.queue[:0], bfsCand{from, 0})
	s.seen[from] = true
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if best != nil && cur.dist > best.dist {
			break
		}
		if cur.node != from && s.alive[cur.node] {
			if best == nil || cur.node < best.node {
				c := cur
				best = &c
			}
			continue
		}
		for _, h := range t.Adj(cur.node) {
			if !s.seen[h.To] {
				s.seen[h.To] = true
				queue = append(queue, bfsCand{h.To, cur.dist + 1})
			}
		}
	}
	for _, c := range queue {
		s.seen[c.node] = false
	}
	s.queue = queue[:0]
	if best == nil {
		return nil
	}
	return s.byNode[best.node]
}

// splitAll splits every copy serving more than 2κ_x requests into
// m = ⌈s/(2κ_x)⌉ copies on the same node, each serving between κ_x and
// 2κ_x requests (Observation 3.2). Copy records and the output list come
// from a; the split share slices are rebuilt fresh (they re-partition the
// original shares, so their sizes are not knowable up front). The chunk
// list of each split reuses s.parts.
func splitAll(copies []*placement.Copy, kappa int64, stats *Stats, a *placement.Arena, s *scratch) []*placement.Copy {
	if kappa == 0 || len(copies) == 0 {
		return copies
	}
	total := 0
	for _, c := range copies {
		total++
		if s := c.Served(); s > 2*kappa {
			total += int((s+2*kappa-1)/(2*kappa)) - 1
		}
	}
	if total == len(copies) {
		return copies // nothing to split
	}
	out := a.NewCopyList(total)
	for _, c := range copies {
		served := c.Served()
		if served <= 2*kappa {
			out = append(out, c)
			continue
		}
		m := (served + 2*kappa - 1) / (2 * kappa)
		parts := splitShares(s.parts[:0], c.Shares, served, m, a)
		s.parts = parts
		for i, p := range parts {
			out = append(out, a.NewCopy(c.Object, c.Node, p))
			if i > 0 {
				stats.Splits++
			}
		}
	}
	return out
}

// splitShares partitions shares totalling s requests into m chunks whose
// sizes differ by at most one (⌈s/m⌉ or ⌊s/m⌋), cutting individual shares
// across chunk boundaries where necessary. When a share is cut, writes are
// placed before reads (a deterministic convention; loads are insensitive
// to the ordering because path load counts reads+writes uniformly).
//
// All chunks are emitted into one shared buffer (at most m−1 cuts can add
// entries, so its exact capacity is known up front) and handed out as
// capacity-capped subslices appended to parts (callers pass a reused
// buffer), so the split costs one arena allocation for the entries.
func splitShares(parts [][]placement.Share, shares []placement.Share, s, m int64, a *placement.Arena) [][]placement.Share {
	buf := a.NewShares(len(shares) + int(m) - 1)
	base := s / m
	rem := s % m
	target := base
	if rem > 0 {
		target = base + 1
		rem--
	}
	start := 0
	var curSize int64
	push := func() {
		parts = append(parts, buf[start:len(buf):len(buf)])
		start = len(buf)
		curSize = 0
		target = base
		if rem > 0 {
			target = base + 1
			rem--
		}
	}
	for _, sh := range shares {
		for sh.Total() > 0 {
			room := target - curSize
			if room == 0 {
				push()
				continue
			}
			take := sh.Total()
			if take > room {
				take = room
			}
			piece := placement.Share{Node: sh.Node}
			piece.Writes = min64(sh.Writes, take)
			piece.Reads = take - piece.Writes
			sh.Writes -= piece.Writes
			sh.Reads -= piece.Reads
			buf = append(buf, piece)
			curSize += take
		}
	}
	if len(buf) > start {
		parts = append(parts, buf[start:len(buf):len(buf)])
	}
	return parts
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
