package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// sinceRef checks every object's row as of its last fold against the
// dense reference prev, exactly (nil, an object never folded with a
// count, standing for a zero row); its bitmap, which must mark exactly
// the cells where cur and prev differ; and that there is exactly one
// saved count per touched cell whose last-fold count is nonzero.
func sinceRef(t *testing.T, ctx string, states []*SinceFold, cur, prev *workload.W) {
	t.Helper()
	buf := make([]workload.Access, cur.NumNodes())
	zero := make([]workload.Access, cur.NumNodes())
	var touched, saved, stTouched, stSaved int
	for x := 0; x < cur.NumObjects(); x++ {
		s := states[x%len(states)]
		last := s.LastFold(x, cur.Row(x), buf)
		if last == nil {
			last = zero
		}
		if !slices.Equal(last, prev.Row(x)) {
			t.Fatalf("%s: object %d: row as of the last fold %v, want %v", ctx, x, last, prev.Row(x))
		}
		li := s.local(x)
		for v := range cur.Row(x) {
			c, p := cur.Row(x)[v], prev.Row(x)[v]
			if bit := s.bits[li*s.words+v>>6]>>(v&63)&1 == 1; bit != (c != p) {
				t.Fatalf("%s: object %d node %d: touched %v, recorded %+v since %+v", ctx, x, v, bit, c, p)
			}
			if c != p {
				touched++
				if p != (workload.Access{}) && s.prev[li] == nil {
					saved++
				}
			}
		}
		if last := s.prev[li]; last != nil && !slices.Equal(last, prev.Row(x)) {
			t.Fatalf("%s: object %d: kept last-fold row %v, want %v", ctx, x, last, prev.Row(x))
		}
	}
	for _, s := range states {
		tc, sc := s.Cells()
		stTouched += tc
		stSaved += sc
	}
	if stTouched != touched || stSaved != saved {
		t.Fatalf("%s: %d touched cells and %d saved counts, want %d and %d", ctx, stTouched, stSaved, touched, saved)
	}
}

// Trackers recording disjoint residue classes into one table keep, per
// object, exactly the dense difference between the table and its rows as
// of each object's last fold: after every batch, across folds of the
// drained objects, at 1 to 3 shards, with objects that save counts and
// objects that keep a last-fold row; a remap onto a tree that drops some
// nodes carries it with the rows, and a clone equals its original.
func TestSinceFoldMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	dense := 0
	for ti, tr := range batchTrees(rng) {
		const objects = 11
		reqs := workload.DriftingZipf(rng, tr, objects, 3000, 3, 1.0, 0.2)
		for shards := 1; shards <= 3; shards++ {
			w, prev := workload.New(objects, tr.Len()), workload.New(objects, tr.Len())
			trackers := make([]*OfflineTracker, shards)
			states := make([]*SinceFold, shards)
			for si := range trackers {
				states[si] = NewSinceFold(objects, tr.Len(), shards)
				trackers[si] = NewOfflineTrackerWith(tr, w, states[si])
			}
			parts := make([][]Request, shards)
			for lo, step := 0, 0; lo < len(reqs); step++ {
				hi := min(lo+1+rng.Intn(150), len(reqs))
				for si := range parts {
					parts[si] = parts[si][:0]
				}
				for _, r := range reqs[lo:hi] {
					parts[r.Object%shards] = append(parts[r.Object%shards], r)
				}
				for si, p := range parts {
					trackers[si].RecordBatch(p)
				}
				lo = hi
				if step%4 == 3 {
					for si, ot := range trackers {
						drained := ot.DrainDrifted(nil)
						for _, x := range drained {
							copy(prev.Row(x), w.Row(x))
						}
						states[si].Forget(drained, w)
					}
				}
				sinceRef(t, fmt.Sprintf("tree %d, %d shards, batches", ti, shards), states, w, prev)
				for _, s := range states {
					for _, p := range s.prev {
						if p != nil {
							dense++
						}
					}
				}
			}

			clones := make([]*SinceFold, shards)
			for si, s := range states {
				clones[si] = s.Clone()
			}
			sinceRef(t, fmt.Sprintf("tree %d, %d shards, clone", ti, shards), clones, w, prev)

			// Drop every third node (the requesting leaves included) and
			// renumber the rest in reverse.
			node := make([]tree.NodeID, tr.Len())
			kept := 0
			for v := range node {
				node[v] = tree.None
				if v%3 != 0 {
					kept++
				}
			}
			next := tree.NodeID(kept)
			for v := range node {
				if v%3 != 0 {
					next--
					node[v] = next
				}
			}
			remap := func(src *workload.W) *workload.W {
				dst := workload.New(objects, kept)
				for x := 0; x < objects; x++ {
					for v, a := range src.Row(x) {
						if node[v] != tree.None {
							dst.Set(x, node[v], a)
						}
					}
				}
				return dst
			}
			moved := make([]*SinceFold, shards)
			for si, s := range states {
				moved[si] = s.Remap(kept, node)
			}
			sinceRef(t, fmt.Sprintf("tree %d, %d shards, remap", ti, shards), moved, remap(w), remap(prev))
		}
	}
	if dense == 0 {
		t.Fatal("no object keeps a last-fold row: the traces no longer exercise that form")
	}
}

// An object whose last-fold row is zero is known without a rebuild:
// LastFold returns nil for it and touches save no count for it, until a
// fold of a row that holds a count marks it; a fold of a zero row (an
// object queued with no traffic) leaves it unmarked. MarkFolded marks an
// object as a decoded image does, and Remap and Clone carry the marks.
func TestSinceFoldZeroLastFold(t *testing.T) {
	tr := tree.SCICluster(2, 3, 16, 8)
	const objects = 6
	w := workload.New(objects, tr.Len())
	s := NewSinceFold(objects, tr.Len(), 2)
	ot := NewOfflineTrackerWith(tr, w, s)
	buf := make([]workload.Access, tr.Len())
	leaves := tr.Leaves()
	ot.RecordBatch([]Request{{Object: 0, Node: leaves[0]}, {Object: 0, Node: leaves[1], Write: true}})
	if last := s.LastFold(0, w.Row(0), buf); last != nil {
		t.Fatalf("never folded: LastFold %v, want nil", last)
	}
	if _, saved := s.Cells(); saved != 0 {
		t.Fatalf("%d counts saved for an object never folded", saved)
	}
	s.Forget([]int{0, 2}, w) // object 2 has no traffic: its folded row is zero
	if s.LastFold(0, w.Row(0), buf) == nil || s.LastFold(2, w.Row(2), buf) != nil {
		t.Fatal("Forget marked the wrong objects")
	}
	ot.RecordBatch([]Request{{Object: 0, Node: leaves[0]}})
	if last := s.LastFold(0, w.Row(0), buf); last[leaves[0]] != (workload.Access{Reads: 1}) {
		t.Fatalf("after the fold: last-fold count %+v at the folded cell, want 1 read", last[leaves[0]])
	}
	s.MarkFolded(4)
	if last := s.LastFold(4, w.Row(4), buf); last == nil || !slices.Equal(last, w.Row(4)) {
		t.Fatalf("MarkFolded: LastFold %v, want the untouched row", last)
	}
	node := make([]tree.NodeID, tr.Len())
	for v := range node {
		node[v] = tree.NodeID(v)
	}
	for name, c := range map[string]*SinceFold{"remap": s.Remap(tr.Len(), node), "clone": s.Clone()} {
		for _, x := range []int{0, 2, 4} {
			if (c.LastFold(x, w.Row(x), buf) == nil) != (s.LastFold(x, w.Row(x), buf) == nil) {
				t.Fatalf("%s: object %d's mark not carried", name, x)
			}
		}
	}
}
