package dynamic

import (
	"math/rand"
	"testing"

	"hbn/internal/tree"
)

// bfsNearest computes, from scratch, every node's nearest copy and its
// distance by a multi-source BFS seeded in list order — the specification
// the nearest tables must match exactly: each node gets the earliest-listed
// of its nearest copies.
func bfsNearest(t *tree.Tree, copies []tree.NodeID) ([]tree.NodeID, []int32) {
	nearest := make([]tree.NodeID, t.Len())
	dist := make([]int32, t.Len())
	for i := range dist {
		dist[i] = -1
	}
	var queue []tree.NodeID
	for _, v := range copies {
		if dist[v] == 0 {
			continue
		}
		dist[v] = 0
		nearest[v] = v
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range t.Adj(v) {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				nearest[h.To] = nearest[v]
				queue = append(queue, h.To)
			}
		}
	}
	return nearest, dist
}

// checkNearestTables asserts the nearest-copy resolution of every
// materialized object against a from-scratch BFS of its copy list. Objects
// in connected mode (tableValid off) keep no tables: for them the check
// pins the connectivity invariant the anchor walk depends on, the anchor
// as the set's top, and that pathToNearest lands on the (unique) nearest
// copy with a path of exactly that length. Objects in table mode must hold
// exactly the tables a rebuild of their list gives — identities as well
// as distances — which is what lets a snapshot carry the list alone.
func checkNearestTables(t *testing.T, tr *tree.Tree, s *Strategy, ctx string) {
	t.Helper()
	r := tr.Rooted0()
	for x := 0; x < s.NumObjects(); x++ {
		if s.isCopy[x] == nil {
			continue
		}
		wantNear, want := bfsNearest(tr, s.copyList[x])
		if !s.tableValid[x] {
			if !copySetConnected(tr, s.copyList[x]) {
				t.Fatalf("%s: object %d in connected mode with disconnected copies %v",
					ctx, x, s.copyList[x])
			}
			if top := s.anchorTop[x]; !s.isCopy[x][top] || (r.Parent[top] != tree.None && s.isCopy[x][r.Parent[top]]) {
				t.Fatalf("%s: object %d: anchor %d is not the top of %v", ctx, x, top, s.copyList[x])
			}
			for v := 0; v < tr.Len(); v++ {
				id := tree.NodeID(v)
				near, path := s.pathToNearest(x, id)
				if near != wantNear[v] || int32(len(path)) != want[v] ||
					int32(r.PathLen(id, near)) != want[v] {
					t.Fatalf("%s: object %d node %d: pathToNearest (%d, %d edges), true nearest %d at %d",
						ctx, x, v, near, len(path), wantNear[v], want[v])
				}
			}
			continue
		}
		for v := 0; v < tr.Len(); v++ {
			if s.ndist[x][v] != want[v] || s.nearest[x][v] != wantNear[v] {
				t.Fatalf("%s: object %d node %d: table (%d, %d) != rebuild of list %v (%d, %d)",
					ctx, x, v, s.nearest[x][v], s.ndist[x][v], s.copyList[x], wantNear[v], want[v])
			}
			near, path := s.pathToNearest(x, tree.NodeID(v))
			if near != wantNear[v] || int32(len(path)) != want[v] {
				t.Fatalf("%s: object %d node %d: pathToNearest (%d, %d edges), true nearest %d at %d",
					ctx, x, v, near, len(path), wantNear[v], want[v])
			}
		}
	}
}

// copySetConnected reports whether the copy nodes induce a connected
// subtree.
func copySetConnected(tr *tree.Tree, copies []tree.NodeID) bool {
	if len(copies) <= 1 {
		return true
	}
	inSet := make(map[tree.NodeID]bool, len(copies))
	for _, v := range copies {
		inSet[v] = true
	}
	seen := map[tree.NodeID]bool{copies[0]: true}
	queue := []tree.NodeID{copies[0]}
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range tr.Adj(v) {
			if inSet[h.To] && !seen[h.To] {
				seen[h.To] = true
				count++
				queue = append(queue, h.To)
			}
		}
	}
	return count == len(copies)
}

// The incremental nearest-copy tables (relaxation on replicate, one BFS on
// write contraction, multi-source rebuild on adoption) must always match a
// from-scratch BFS recomputation, after arbitrary request sequences
// interleaved with copy-set adoptions.
func TestNearestTablesMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(733))
	for trial := 0; trial < 12; trial++ {
		tr := tree.Random(rng, 8+rng.Intn(40), 4, 0.4, 8)
		const objects = 4
		s := MustNew(tr, objects, Options{Threshold: 1 + rng.Intn(3)})
		reqs := RandomSequence(rng, tr, objects, 400, 0.25)
		leaves := tr.Leaves()
		for i, r := range reqs {
			s.Serve(r)
			if i%23 == 0 {
				checkNearestTables(t, tr, s, "after serve")
			}
			if i%61 == 60 {
				// Adopt a random leaf set for a random object, as the epoch
				// re-solver does, and keep serving.
				x := rng.Intn(objects)
				k := 1 + rng.Intn(min(4, len(leaves)))
				perm := rng.Perm(len(leaves))
				nodes := make([]tree.NodeID, k)
				for j := range nodes {
					nodes[j] = leaves[perm[j]]
				}
				s.AdoptCopySet(x, nodes)
				checkNearestTables(t, tr, s, "after adopt")
			}
		}
		checkNearestTables(t, tr, s, "final")
	}
}

// Adoption prices copy movement as the distance from each new copy to the
// previous copy set, charges nothing for an unchanged set, and nothing for
// a first materialization.
func TestAdoptCopySetMovement(t *testing.T) {
	tr := tree.Caterpillar(5, 1, 8, 8) // a path of leaves hanging off a bus spine
	leaves := tr.Leaves()
	s := MustNew(tr, 2, Options{Threshold: 1})

	// First adoption materializes for free.
	if moved := s.AdoptCopySet(0, []tree.NodeID{leaves[0]}); moved != 0 {
		t.Fatalf("first adoption moved %d, want 0", moved)
	}
	// Re-adopting the identical set is free and keeps read counters.
	if moved := s.AdoptCopySet(0, []tree.NodeID{leaves[0]}); moved != 0 {
		t.Fatalf("identical adoption moved %d, want 0", moved)
	}
	// Adding the far end pays its distance to the existing copy.
	far := leaves[len(leaves)-1]
	wantDist := int64(tr.Rooted0().PathLen(leaves[0], far))
	if moved := s.AdoptCopySet(0, []tree.NodeID{leaves[0], far}); moved != wantDist {
		t.Fatalf("adoption moved %d, want %d", moved, wantDist)
	}
	// Duplicates in the input are ignored.
	if moved := s.AdoptCopySet(0, []tree.NodeID{far, far, leaves[0]}); moved != 0 {
		t.Fatalf("duplicate adoption moved %d, want 0", moved)
	}
	if got := s.Copies(0); len(got) != 2 {
		t.Fatalf("copies after duplicate adoption: %v", got)
	}
	// Shrinking the set costs nothing (deletions are free), and serving
	// afterwards still works against consistent tables.
	if moved := s.AdoptCopySet(0, []tree.NodeID{far}); moved != 0 {
		t.Fatalf("shrinking adoption moved %d, want 0", moved)
	}
	if cost := s.Serve(Request{Object: 0, Node: far}); cost != 0 {
		t.Fatalf("read at the adopted copy cost %d", cost)
	}
	checkNearestTables(t, tr, s, "after shrink")
}

// Re-adopting an unchanged set in another order leaves the list and its
// tables alone. On a star the bus is equidistant from every leaf, so a
// list reordered under tables built for the old order would disagree with
// its own rebuild there.
func TestUnchangedAdoptionKeepsList(t *testing.T) {
	tr := tree.Star(4, 8)
	leaves := tr.Leaves()
	s := MustNew(tr, 1, Options{Threshold: 2})
	s.AdoptCopySet(0, []tree.NodeID{leaves[0], leaves[1]})
	s.Serve(Request{Object: 0, Node: leaves[2]}) // a live counter to keep
	gen := s.curGen[0]
	if moved := s.AdoptCopySet(0, []tree.NodeID{leaves[1], leaves[0]}); moved != 0 {
		t.Fatalf("unchanged adoption moved %d", moved)
	}
	if got := s.copyList[0]; got[0] != leaves[0] || got[1] != leaves[1] {
		t.Fatalf("unchanged adoption reordered the list to %v", got)
	}
	if s.curGen[0] != gen {
		t.Fatal("unchanged adoption reset the read counters")
	}
	checkNearestTables(t, tr, s, "after unchanged adoption")
}
