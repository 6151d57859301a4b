package tree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// A reused Closure holds exactly the given nodes and their ancestors, in
// both sorted views, whether the views are sorted or scanned (small and
// large sets), across many sets and across the generation counter's wrap.
func TestClosureMatchesAncestorWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trees := []*Tree{Star(9, 4), Caterpillar(60, 2, 8, 8), SCICluster(8, 8, 32, 16)}
	for i := 0; i < 6; i++ {
		trees = append(trees, Random(rng, 3+rng.Intn(150), 2+rng.Intn(6), 0.4, 8))
	}
	for ti, tr := range trees {
		r := tr.Rooted0()
		c := NewClosure(r)
		for round := 0; round < 40; round++ {
			if round == 20 {
				c.gen = math.MaxUint32 - 1
			}
			n := tr.Len()
			set := make([]NodeID, 1+rng.Intn(n))
			for i := range set {
				set[i] = NodeID(rng.Intn(n))
			}
			if round%3 == 0 {
				set = set[:min(len(set), 3)]
			}
			want := make([]bool, n)
			for _, v := range set {
				for ; v != None && !want[v]; v = r.Parent[v] {
					want[v] = true
				}
			}
			c.Reset()
			for _, v := range set {
				c.Add(v)
			}
			var ids []NodeID
			var pos []int32
			for v := range want {
				if c.Has(NodeID(v)) != want[v] {
					t.Fatalf("tree %d round %d: Has(%d) = %v", ti, round, v, !want[v])
				}
				if want[v] {
					ids = append(ids, NodeID(v))
					pos = append(pos, r.Pos()[v])
				}
			}
			slices.Sort(pos)
			got := slices.Clone(c.Nodes())
			slices.Sort(got)
			if !slices.Equal(c.ByID(), ids) || !slices.Equal(got, ids) || !slices.Equal(c.Preorder(), pos) {
				t.Fatalf("tree %d round %d: closure %v / %v / %v, want %v / %v", ti, round, c.ByID(), got, c.Preorder(), ids, pos)
			}
		}
	}
}
