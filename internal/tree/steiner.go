package tree

// SteinerEdges returns the edge set of the Steiner tree of members within
// the tree: the union of the unique paths between all pairs of members.
// Equivalently (and how it is computed), an edge belongs to the Steiner
// tree iff both of its sides contain at least one member.
//
// The result is returned as a boolean mask indexed by EdgeID so callers can
// accumulate loads without allocation churn; the second result is the
// number of Steiner edges. members may contain duplicates. An empty or
// singleton member set yields no edges.
func SteinerEdges(r *Rooted, members []NodeID) ([]bool, int) {
	t := r.T
	mask := make([]bool, t.NumEdges())
	n := SteinerEdgesInto(r, members, mask)
	return mask, n
}

// SteinerEdgesInto is SteinerEdges writing into a caller-provided mask
// (which must have length NumEdges() and be all-false on entry; it is left
// all-true exactly on Steiner edges).
func SteinerEdgesInto(r *Rooted, members []NodeID, mask []bool) int {
	if len(members) <= 1 {
		return 0
	}
	t := r.T
	inSet := make([]int64, t.Len())
	var total int64
	for _, m := range members {
		inSet[m]++
		total++
	}
	below := r.SubtreeSums(inSet)
	count := 0
	for _, v := range r.Order {
		e := r.ParentEdge[v]
		if e == NoEdge {
			continue
		}
		if below[v] > 0 && below[v] < total {
			mask[e] = true
			count++
		}
	}
	return count
}

// NearestInSet computes, for every node v, the member of set closest to v
// (in hop distance) and the hop distance itself, via a multi-source BFS.
// set must be non-empty. Ties are broken towards the member discovered
// first in BFS order, which makes the result deterministic for a given
// iteration order of set.
func NearestInSet(t *Tree, set []NodeID) (nearest []NodeID, dist []int32) {
	n := t.Len()
	nearest = make([]NodeID, n)
	dist = make([]int32, n)
	for i := range nearest {
		nearest[i] = None
		dist[i] = -1
	}
	queue := make([]NodeID, 0, n)
	for _, s := range set {
		if nearest[s] == None {
			nearest[s] = s
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range t.Adj(v) {
			if nearest[h.To] == None {
				nearest[h.To] = nearest[v]
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return nearest, dist
}
