package nibble

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// denseGravityCenter is the O(|V|) oracle of the closure-sparse gravity
// center: subtree sums over the whole tree, then the first node in ID
// order whose largest component holds at most half the total.
func denseGravityCenter(t *tree.Tree, h []int64) (tree.NodeID, []int64) {
	var total int64
	for _, v := range h {
		if v < 0 {
			panic("nibble: negative weight")
		}
		total += v
	}
	if total == 0 {
		return t.Leaves()[0], nil
	}
	r := t.Rooted0()
	sub := r.SubtreeSums(h)
	for v := 0; v < t.Len(); v++ {
		id := tree.NodeID(v)
		maxComp := total - sub[id]
		for _, h2 := range t.Adj(id) {
			if h2.To != r.Parent[id] && sub[h2.To] > maxComp {
				maxComp = sub[h2.To]
			}
		}
		if 2*maxComp <= total {
			return id, sub
		}
	}
	panic("nibble: no gravity center found")
}

// densePlaceObject is the O(|V|) oracle of the closure-sparse placement:
// re-root the subtree sums at g, then every node v == g or with sub > κ
// in ID order.
func densePlaceObject(t *tree.Tree, h []int64, kappa int64) ObjectPlacement {
	g, sub := denseGravityCenter(t, h)
	if sub == nil {
		return ObjectPlacement{Gravity: g, Copies: []tree.NodeID{g}}
	}
	total := sub[0]
	r0 := t.Rooted0()
	prevOrig := sub[g]
	sub[g] = total
	for a := r0.Parent[g]; a != tree.None; a = r0.Parent[a] {
		orig := sub[a]
		sub[a] = total - prevOrig
		prevOrig = orig
	}
	var copies []tree.NodeID
	for v := 0; v < t.Len(); v++ {
		if id := tree.NodeID(v); id == g || sub[id] > kappa {
			copies = append(copies, id)
		}
	}
	return ObjectPlacement{Gravity: g, Copies: copies}
}

// oracleTrees is the topology mix of the oracle tests: random trees, SCI
// clusters, stars and caterpillars (deep and wide).
func oracleTrees(rng *rand.Rand) []*tree.Tree {
	trees := []*tree.Tree{
		tree.Star(2, 4), tree.Star(12, 8),
		tree.Caterpillar(40, 2, 8, 8), tree.Caterpillar(5, 9, 16, 16),
		tree.SCICluster(2, 3, 8, 4), tree.SCICluster(8, 8, 32, 16), tree.SCICluster(16, 16, 32, 16),
	}
	for i := 0; i < 8; i++ {
		trees = append(trees, tree.Random(rng, 4+rng.Intn(120), 2+rng.Intn(6), 0.4, 8))
	}
	return trees
}

// oracleWorkload fills one object per row kind: empty, a single leaf,
// sparse rows (2–5 leaves), half and full rows, read-only and write-only
// rows, and rows with equal weights, which tie gravity centers.
func oracleWorkload(rng *rand.Rand, t *tree.Tree) *workload.W {
	leaves := t.Leaves()
	kinds := []int{0, 1, 2, 3, 4, 5, 6, 7, 2, 3}
	w := workload.New(len(kinds), t.Len())
	for x, kind := range kinds {
		var picks []tree.NodeID
		switch kind {
		case 0:
		case 1:
			picks = []tree.NodeID{leaves[rng.Intn(len(leaves))]}
		case 2, 5, 6, 7:
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
			r, wr := int64(rng.Intn(20)), int64(rng.Intn(6))
			switch kind {
			case 5:
				wr = 0
			case 6:
				r = 0
			case 7:
				r, wr = 3, 1
			}
			w.Set(x, v, workload.Access{Reads: r, Writes: wr})
		}
	}
	return w
}

// Step 1 on the closure of the support must equal the dense placement:
// the same gravity center and the same copy set, for every row kind.
func TestPlacementMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	checked := 0
	for ti, tr := range oracleTrees(rng) {
		s := NewScratch(tr)
		var sup workload.Support
		for round := 0; round < 4; round++ {
			w := oracleWorkload(rng, tr)
			res := Place(tr, w)
			for x := 0; x < w.NumObjects(); x++ {
				h := w.Weights(x)
				want := densePlaceObject(tr, h, w.Kappa(x))
				w.SupportInto(x, &sup)
				for name, got := range map[string]ObjectPlacement{
					"Place":            res.Objects[x],
					"PlaceObject":      PlaceObject(tr, h, w.Kappa(x)),
					"PlaceSupportInto": PlaceSupportInto(s, tr, &sup, nil),
				} {
					if got.Gravity != want.Gravity || !slices.Equal(got.Copies, want.Copies) {
						t.Fatalf("tree %d round %d object %d %s: got g=%d %v, dense g=%d %v",
							ti, round, x, name, got.Gravity, got.Copies, want.Gravity, want.Copies)
					}
				}
				if g, _ := denseGravityCenter(tr, h); GravityCenter(tr, h) != g {
					t.Fatalf("tree %d object %d: GravityCenter differs from the dense oracle", ti, x)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no object checked")
	}
}

// A Scratch reused across many objects must not leak one object's
// closure into the next (the generation stamps replace per-object
// clears): placing objects in a shuffled order through one Scratch gives
// the dense answers.
func TestPlacementScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	for _, tr := range oracleTrees(rng)[:6] {
		w := oracleWorkload(rng, tr)
		s := NewScratch(tr)
		var sup workload.Support
		for _, x := range rng.Perm(w.NumObjects()) {
			w.SupportInto(x, &sup)
			got := PlaceSupportInto(s, tr, &sup, nil)
			want := densePlaceObject(tr, w.Weights(x), w.Kappa(x))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("object %d: reused scratch gives %v, dense %v", x, got, want)
			}
		}
	}
}

func TestPlaceObjectNegativeWeightPanics(t *testing.T) {
	tr := star(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PlaceObject(tr, []int64{0, 4, -1, 0}, 0)
}
