package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The closure-sparse per-object routines against O(|V|) oracles that
// sweep the whole tree and row.

// denseNearestObject is the nearest-copy assignment over the whole tree:
// a multi-source BFS from the copies, then a share for every node of the
// row with demand, in ID order.
func denseNearestObject(t *tree.Tree, w *workload.W, x int, copyNodes []tree.NodeID) ([]*Copy, error) {
	if len(copyNodes) == 0 {
		if w.TotalWeight(x) == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("placement: object %d has demand but no copies", x)
	}
	for _, v := range copyNodes {
		if v < 0 || int(v) >= t.Len() {
			return nil, fmt.Errorf("placement: object %d lists out-of-range node %d", x, v)
		}
	}
	nearest, _ := tree.NearestInSet(t, copyNodes)
	byNode := make(map[tree.NodeID]*Copy)
	var out []*Copy
	for _, v := range copyNodes {
		if byNode[v] != nil {
			return nil, fmt.Errorf("placement: object %d lists node %d twice", x, v)
		}
		byNode[v] = &Copy{Object: x, Node: v}
		out = append(out, byNode[v])
	}
	for v, a := range w.Row(x) {
		if a.Total() != 0 {
			c := byNode[nearest[v]]
			c.Shares = append(c.Shares, Share{Node: tree.NodeID(v), Reads: a.Reads, Writes: a.Writes})
		}
	}
	return out, nil
}

// denseAccumulateObject is the load fold over every preorder position.
func denseAccumulateObject(t *tree.Tree, p *P, x int, edgeLoad []int64) {
	r := t.Rooted0()
	lca := r.LCAIndex()
	pos := r.Pos()
	diff := make([]int64, t.Len())
	cnt := make([]int32, t.Len())
	var kappa int64
	for _, c := range p.Copies[x] {
		for _, sh := range c.Shares {
			kappa += sh.Writes
			if n := sh.Total(); n != 0 && sh.Node != c.Node {
				diff[pos[sh.Node]] += n
				diff[pos[c.Node]] += n
				diff[pos[lca.LCA(sh.Node, c.Node)]] -= 2 * n
			}
		}
	}
	var total int32
	if kappa > 0 && len(p.Copies[x]) > 1 {
		for _, c := range p.Copies[x] {
			if cp := pos[c.Node]; cnt[cp] == 0 {
				cnt[cp] = 1
				total++
			}
		}
	}
	steps := r.Steps()
	for i := len(steps) - 1; i >= 1; i-- {
		s := steps[i]
		edgeLoad[s.Edge] += diff[i]
		diff[s.ParentPos] += diff[i]
		if c := cnt[i]; c > 0 {
			if total > 1 && c < total {
				edgeLoad[s.Edge] += kappa
			}
			cnt[s.ParentPos] += c
		}
	}
}

// denseValidateObject is the coverage check over the whole row.
func denseValidateObject(t *tree.Tree, w *workload.W, p *P, x int) error {
	reads := make([]int64, max(t.Len(), w.NumNodes()))
	writes := make([]int64, len(reads))
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
	for v, a := range w.Row(x) {
		if reads[v] != a.Reads || writes[v] != a.Writes {
			return fmt.Errorf("placement: object %d node %d covers (r=%d,w=%d), workload has (r=%d,w=%d)",
				x, v, reads[v], writes[v], a.Reads, a.Writes)
		}
	}
	if w.TotalWeight(x) > 0 && len(p.Copies[x]) == 0 {
		return fmt.Errorf("placement: object %d has demand but no copies", x)
	}
	return nil
}

// oracleTrees is the topology mix of the oracle tests: random trees, SCI
// clusters, stars (where every pair of leaves ties) and caterpillars.
func oracleTrees(rng *rand.Rand) []*tree.Tree {
	trees := []*tree.Tree{
		tree.Star(2, 4), tree.Star(12, 8),
		tree.Caterpillar(40, 2, 8, 8), tree.Caterpillar(5, 9, 16, 16),
		tree.SCICluster(2, 3, 8, 4), tree.SCICluster(8, 8, 32, 16),
	}
	for i := 0; i < 8; i++ {
		trees = append(trees, tree.Random(rng, 4+rng.Intn(120), 2+rng.Intn(6), 0.4, 8))
	}
	return trees
}

// oracleWorkload holds one object per row kind: empty, a single leaf,
// sparse (2–5 leaves), about half the leaves, all leaves, read-only and
// write-only.
func oracleWorkload(rng *rand.Rand, t *tree.Tree) *workload.W {
	leaves := t.Leaves()
	kinds := []int{0, 1, 2, 3, 4, 5, 6, 2}
	w := workload.New(len(kinds), t.Len())
	for x, kind := range kinds {
		var picks []tree.NodeID
		switch kind {
		case 1:
			picks = []tree.NodeID{leaves[rng.Intn(len(leaves))]}
		case 2, 5, 6:
			for i := 0; i < 2+rng.Intn(4); i++ {
				picks = append(picks, leaves[rng.Intn(len(leaves))])
			}
		case 3:
			for _, l := range leaves {
				if rng.Intn(2) == 0 {
					picks = append(picks, l)
				}
			}
		case 4:
			picks = leaves
		}
		for _, v := range picks {
			a := workload.Access{Reads: int64(1 + rng.Intn(20)), Writes: int64(rng.Intn(6))}
			switch kind {
			case 5:
				a.Writes = 0
			case 6:
				a.Reads = 0
			}
			w.Set(x, v, a)
		}
	}
	return w
}

// randomCopySet draws a copy set: any nodes, inner ones included, not
// necessarily connected; sometimes two leaves of one bus (equal-distance
// ties for every other requester of that bus) or a repeated node.
func randomCopySet(rng *rand.Rand, t *tree.Tree) []tree.NodeID {
	n := t.Len()
	var set []tree.NodeID
	switch rng.Intn(5) {
	case 0: // siblings: ties for every other child of their parent
		if inner := t.Inner(); len(inner) > 0 {
			b := inner[rng.Intn(len(inner))]
			for _, h := range t.Adj(b) {
				if t.IsLeaf(h.To) && len(set) < 2 {
					set = append(set, h.To)
				}
			}
		}
	case 1: // a repeated node
		v := tree.NodeID(rng.Intn(n))
		set = []tree.NodeID{v, tree.NodeID(rng.Intn(n)), v}
	}
	for _, v := range rng.Perm(n)[:1+rng.Intn(min(n, 6))] {
		if !slices.Contains(set, tree.NodeID(v)) {
			set = append(set, tree.NodeID(v))
		}
	}
	return set
}

func sameCopies(a, b []*Copy) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Object != b[i].Object || a[i].Node != b[i].Node || !slices.Equal(a[i].Shares, b[i].Shares) {
			return false
		}
	}
	return true
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// Nearest-copy assignment over the closure of the support and the copies
// picks the copy the whole-tree BFS picks, ties included, and appends the
// shares in the same order; errors (no copies, a repeated node) agree.
func TestNearestObjectMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3030))
	checked := 0
	for ti, tr := range oracleTrees(rng) {
		s := NewAssignScratch(tr)
		for round := 0; round < 12; round++ {
			w := oracleWorkload(rng, tr)
			for x := 0; x < w.NumObjects(); x++ {
				set := randomCopySet(rng, tr)
				if round == 0 {
					set = nil
				}
				want, werr := denseNearestObject(tr, w, x, set)
				var sup workload.Support
				w.SupportInto(x, &sup)
				got, gerr := s.NearestObject(tr, x, &sup, set, nil)
				if !sameError(gerr, werr) || !sameCopies(got, want) {
					t.Fatalf("tree %d round %d object %d copies %v: got %v (%v), dense %v (%v)",
						ti, round, x, set, got, gerr, want, werr)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no object checked")
	}
}

// randomFoldPlacement assigns each object's demand to a random copy set,
// with every share served by a random copy, then scrambles it the ways
// the pipeline does: split copies on one node, a node's demand split over
// several copies, shares served locally and empty shares.
func randomFoldPlacement(rng *rand.Rand, t *tree.Tree, w *workload.W) *P {
	p := New(w.NumObjects())
	for x := 0; x < w.NumObjects(); x++ {
		set := randomCopySet(rng, t)
		slices.Sort(set)
		set = slices.Compact(set)
		ref := make([]tree.NodeID, t.Len())
		for v := range ref {
			ref[v] = set[rng.Intn(len(set))]
		}
		var sup workload.Support
		w.SupportInto(x, &sup)
		cs, err := assignObject(x, &sup, set, ref, make([]*Copy, t.Len()), make([]int32, t.Len()), nil)
		if err != nil {
			panic(err)
		}
		if len(cs) > 0 && rng.Intn(2) == 0 {
			c := cs[rng.Intn(len(cs))]
			twin := &Copy{Object: x, Node: c.Node}
			if len(c.Shares) > 0 {
				sh := &c.Shares[0]
				twin.Shares = []Share{{Node: sh.Node, Reads: sh.Reads / 2, Writes: sh.Writes / 2}, {Node: c.Node}}
				sh.Reads -= sh.Reads / 2
				sh.Writes -= sh.Writes / 2
			}
			cs = append(cs, twin)
		}
		p.Copies[x] = cs
	}
	return p
}

// The load fold over the closure of the share and copy nodes gives every
// edge the load of the fold over all of V, through a reused evaluator.
func TestAccumulateObjectMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4040))
	for ti, tr := range oracleTrees(rng) {
		ev := NewEvaluator(tr)
		for round := 0; round < 8; round++ {
			w := oracleWorkload(rng, tr)
			p := randomFoldPlacement(rng, tr, w)
			for x := 0; x < w.NumObjects(); x++ {
				got := make([]int64, tr.NumEdges())
				want := make([]int64, tr.NumEdges())
				ev.accumulateObject(p, x, got)
				denseAccumulateObject(tr, p, x, want)
				if !slices.Equal(got, want) {
					t.Fatalf("tree %d round %d object %d: loads %v, dense %v", ti, round, x, got, want)
				}
			}
		}
	}
}

// The share-node coverage check reports the error the whole-row check
// reports (the lowest-ID mismatch), or none, and leaves its tallies zero.
func TestValidateObjectMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5050))
	for ti, tr := range oracleTrees(rng) {
		reads := make([]int64, tr.Len())
		writes := make([]int64, tr.Len())
		as := NewAssignScratch(tr)
		for round := 0; round < 6; round++ {
			w := oracleWorkload(rng, tr)
			for x := 0; x < w.NumObjects(); x++ {
				for mut := 0; mut < 10; mut++ {
					var sup workload.Support
					w.SupportInto(x, &sup)
					set := randomCopySet(rng, tr)
					slices.Sort(set)
					cs, err := as.NearestObject(tr, x, &sup, slices.Compact(set), nil)
					if err != nil {
						t.Fatal(err)
					}
					p := New(w.NumObjects())
					p.Copies[x] = cs
					mutateCoverage(rng, tr, p, x, mut)
					want := denseValidateObject(tr, w, p, x)
					got := p.ValidateObject(tr, w, x, len(sup.Nodes), reads, writes)
					if !sameError(got, want) {
						t.Fatalf("tree %d object %d mutation %d: got %v, dense %v", ti, x, mut, got, want)
					}
					if slices.ContainsFunc(reads, func(v int64) bool { return v != 0 }) ||
						slices.ContainsFunc(writes, func(v int64) bool { return v != 0 }) {
						t.Fatalf("tree %d object %d mutation %d: tallies not re-zeroed", ti, x, mut)
					}
				}
			}
		}
	}
}

// mutateCoverage applies mutation kind mut to object x's copies: 0 keeps
// them, 1 drops a share, 2 and 3 over- and under-count one, 4 adds an
// empty share, 5 adds demand on a node without any, 6 splits a share over
// two copies, 7 negates one, 8 files a copy under another object, 9
// drops every copy.
func mutateCoverage(rng *rand.Rand, t *tree.Tree, p *P, x, mut int) {
	cs := p.Copies[x]
	var sh *Share
	if len(cs) > 0 && len(cs[0].Shares) > 0 {
		sh = &cs[0].Shares[rng.Intn(len(cs[0].Shares))]
	}
	v := tree.NodeID(rng.Intn(t.Len()))
	switch {
	case mut == 1 && sh != nil:
		cs[0].Shares = slices.DeleteFunc(cs[0].Shares, func(s Share) bool { return s == *sh })
	case mut == 2 && sh != nil:
		sh.Reads++
	case mut == 3 && sh != nil:
		sh.Writes--
		if sh.Writes < 0 {
			sh.Writes, sh.Reads = 0, sh.Reads-1
		}
	case mut == 4 && len(cs) > 0:
		cs[0].Shares = append(cs[0].Shares, Share{Node: v})
	case mut == 5 && len(cs) > 0:
		cs[0].Shares = append(cs[0].Shares, Share{Node: v, Writes: 1})
	case mut == 6 && sh != nil:
		p.Copies[x] = append(cs, &Copy{Object: x, Node: v, Shares: []Share{{Node: sh.Node, Reads: sh.Reads}}})
		sh.Reads = 0
	case mut == 7 && sh != nil:
		sh.Reads = -1
	case mut == 8 && len(cs) > 0:
		cs[len(cs)-1].Object = x + 1
	case mut == 9:
		p.Copies[x] = nil
	}
}
