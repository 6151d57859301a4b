// Package topo is the topology-reconfiguration subsystem: it lets a live
// hierarchical bus network change shape — processors fail or join, bus
// subtrees are decommissioned or grafted, switch and bus bandwidths
// degrade or recover — while every layer built on top of the network
// (solver workloads, online copy sets, serving clusters) carries its state
// across the change instead of restarting cold.
//
// A Diff declares the mutations against the current tree. Apply executes
// it structurally: it produces the new tree.Tree together with a Remap, a
// dense old→new renumbering of node and edge IDs (with reverse maps), so
// every ID-indexed structure — frequency rows, per-edge load accounts,
// copy sets, in-flight traces — can be projected onto the new network
// mechanically. Migrate is the state-carrying planner on top of Apply: it
// remaps the observed workload frequencies, projects each object's copy
// set onto the surviving nodes (minimal movement: surviving copies stay
// exactly where they are), recovers objects whose copies were all lost,
// and re-solves the remapped workload on the new tree so callers can adopt
// the near-optimal placement through dynamic.Strategy.AdoptCopySet, which
// prices the migration through the same movement account the serving
// layer's epoch adoption uses.
//
// ID contract: surviving old nodes keep their relative order and are
// renumbered densely first, grafted nodes follow in Diff.Add order;
// surviving old edges keep their relative order and are renumbered first,
// grafted switches follow. An identity Diff therefore reproduces the tree
// bit-identically (same IDs, names, kinds, bandwidths) with an identity
// Remap — the round-trip property the tests pin down.
package topo

import (
	"errors"
	"fmt"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Typed diff-validation errors. Apply (and everything layered on it:
// Migrate, serve.Cluster.Reconfigure) rejects a degenerate diff up front
// with one of these sentinels wrapped in positional context, so callers
// can classify the rejection with errors.Is instead of relying on
// downstream build/validation panics or string matching.
var (
	// ErrRemoveRoot: the diff removes node 0, which anchors the surviving
	// component.
	ErrRemoveRoot = errors.New("node 0 anchors the surviving component and cannot be removed")
	// ErrRemoveRange: a removal references a node outside the old tree.
	ErrRemoveRange = errors.New("removed node out of range")
	// ErrOverlappingRemove: a removal is redundant — the same node is
	// listed twice, or an ancestor's listed subtree already covers it.
	// Redundant removals are almost always a caller computing removal sets
	// against a stale tree, so they are rejected rather than absorbed.
	ErrOverlappingRemove = errors.New("removal already covered by another removed subtree")
	// ErrNoProcessors: the diff leaves the network without a single
	// processor (every leaf removed and none grafted back).
	ErrNoProcessors = errors.New("diff removes the last processor and grafts no replacement")
	// ErrBadGraft: a graft entry is malformed (unknown kind, bad parent
	// reference, parent removed by the same diff, parent is a processor).
	ErrBadGraft = errors.New("invalid graft")
	// ErrBadBandwidth: a bandwidth override is malformed (out of range,
	// removed target, non-positive bandwidth, wrong node kind).
	ErrBadBandwidth = errors.New("invalid bandwidth override")
)

// Graft describes one node added by a Diff. The parent is either a
// surviving bus of the old tree (Parent, when ParentAdded is 0) or an
// earlier entry of the same Diff's Add list (ParentAdded, 1-based: k
// refers to Add[k-1]); grafting under a processor is rejected, since it
// would turn the processor into an inner node. Zero bandwidths default to
// 1; the switch of a grafted processor must have bandwidth 1 (the HBN
// contract, enforced by the final validation).
type Graft struct {
	Kind tree.Kind
	Name string
	// Bandwidth is the bus bandwidth (buses only; 0 means 1).
	Bandwidth int64
	// Parent is the old-tree bus to attach under (used when ParentAdded
	// is 0). It must survive the Diff's removals.
	Parent tree.NodeID
	// ParentAdded, when > 0, attaches under Add[ParentAdded-1] instead.
	ParentAdded int
	// SwitchBandwidth is the bandwidth of the connecting switch (0 means 1).
	SwitchBandwidth int64
}

// SwitchBandwidth changes the bandwidth of a surviving old-tree switch.
type SwitchBandwidth struct {
	Edge      tree.EdgeID
	Bandwidth int64
}

// BusBandwidth changes the bandwidth of a surviving old-tree bus.
type BusBandwidth struct {
	Node      tree.NodeID
	Bandwidth int64
}

// Diff is a batch of mutations to a network. The zero value is the
// identity diff. All node and edge IDs refer to the OLD tree.
type Diff struct {
	// Remove detaches each listed node together with everything below it
	// in the canonical node-0 orientation (a leaf processor removes just
	// itself; a bus removes its whole hanging subtree). Node 0's component
	// is the part that survives, so removing node 0 is an error.
	Remove []tree.NodeID
	// Add grafts new nodes, in order (later entries may attach under
	// earlier ones via ParentAdded).
	Add []Graft
	// SetSwitchBandwidth / SetBusBandwidth change bandwidths of surviving
	// edges and buses (duplicates: the last entry wins). Referencing a
	// removed edge or node is an error.
	SetSwitchBandwidth []SwitchBandwidth
	SetBusBandwidth    []BusBandwidth
}

// Identity reports whether the diff declares no mutations at all.
func (d *Diff) Identity() bool {
	return len(d.Remove) == 0 && len(d.Add) == 0 &&
		len(d.SetSwitchBandwidth) == 0 && len(d.SetBusBandwidth) == 0
}

// Remap is the dense ID translation between the old and the new tree.
type Remap struct {
	// Node / Edge map old IDs to new ones; removed entries hold
	// tree.None / tree.NoEdge.
	Node []tree.NodeID
	Edge []tree.EdgeID
	// NodeBack / EdgeBack map new IDs back; grafted entries hold
	// tree.None / tree.NoEdge.
	NodeBack []tree.NodeID
	EdgeBack []tree.EdgeID
	// Added maps Diff.Add indices to new node IDs (tree.None when the
	// grafted node was pruned as a degenerate bus).
	Added []tree.NodeID
}

// Identity reports whether the remap is the identity on both nodes and
// edges (nothing removed, nothing added).
func (m *Remap) Identity() bool {
	if len(m.Node) != len(m.NodeBack) || len(m.Edge) != len(m.EdgeBack) {
		return false
	}
	for v, nv := range m.Node {
		if int(nv) != v {
			return false
		}
	}
	for e, ne := range m.Edge {
		if int(ne) != e {
			return false
		}
	}
	return true
}

// Workload projects w (indexed by old-tree nodes) onto the new tree:
// surviving nodes carry their frequencies to their new IDs, removed
// nodes' rows are dropped (their processors no longer exist to issue
// requests), grafted nodes start at zero. The result is freshly
// allocated.
func (m *Remap) Workload(w *workload.W) *workload.W {
	if w.NumNodes() != len(m.Node) {
		panic(fmt.Sprintf("topo: workload built for %d nodes, remap for %d", w.NumNodes(), len(m.Node)))
	}
	nw := workload.New(w.NumObjects(), len(m.NodeBack))
	for x := 0; x < w.NumObjects(); x++ {
		m.Row(nw.Row(x), w.Row(x))
	}
	return nw
}

// Row projects one object's frequency row onto the new tree: every entry
// of dst (indexed by new node) takes the entry of src (indexed by old
// node) for the same node, grafted nodes get zero, and removed nodes'
// entries are dropped. Like workload.W.Set, it panics on a negative
// frequency.
func (m *Remap) Row(dst, src []workload.Access) {
	if len(src) != len(m.Node) || len(dst) != len(m.NodeBack) {
		panic(fmt.Sprintf("topo: row of %d nodes onto %d, remap for %d onto %d", len(src), len(dst), len(m.Node), len(m.NodeBack)))
	}
	for nv, v := range m.NodeBack {
		var a workload.Access
		if v != tree.None {
			a = src[v]
		}
		if a.Reads < 0 || a.Writes < 0 {
			panic("topo: negative frequency")
		}
		dst[nv] = a
	}
}

// EdgeLoads projects a per-old-edge load vector onto the new tree:
// surviving edges carry their accumulated loads, removed edges' loads are
// dropped, grafted switches start at zero. The result is freshly
// allocated with one entry per new edge.
func (m *Remap) EdgeLoads(old []int64) []int64 {
	if len(old) != len(m.Edge) {
		panic(fmt.Sprintf("topo: load vector for %d edges, remap for %d", len(old), len(m.Edge)))
	}
	out := make([]int64, len(m.EdgeBack))
	for e, l := range old {
		if ne := m.Edge[e]; ne != tree.NoEdge {
			out[ne] = l
		}
	}
	return out
}

// ProjectNodes maps a set of old-tree nodes onto the new tree, dropping
// the removed ones. The result is freshly allocated (nil when no node
// survives).
func (m *Remap) ProjectNodes(nodes []tree.NodeID) []tree.NodeID {
	var out []tree.NodeID
	for _, v := range nodes {
		if nv := m.Node[v]; nv != tree.None {
			out = append(out, nv)
		}
	}
	return out
}

// Apply executes the diff against t and returns the new tree together
// with the old→new remap. Structure first: removals detach whole
// node-0-rooted subtrees, grafts attach, then degenerate buses — buses
// left with at most one incident switch, whether orphaned by removals or
// grafted without children — are pruned iteratively (a bus that is a leaf
// violates the HBN contract, and a childless bus serves nothing). The
// result is validated with ValidateHBN, so Apply either returns a fully
// valid hierarchical bus network or an error; t itself is never mutated.
func Apply(t *tree.Tree, d Diff) (*tree.Tree, *Remap, error) {
	n, ne := t.Len(), t.NumEdges()
	total := n + len(d.Add)

	// Removal: mark each listed node, then propagate to descendants in the
	// canonical orientation (one preorder pass: Steps lists parents before
	// children). Degenerate removal sets — out-of-range or root references,
	// duplicates, nodes already covered by a listed ancestor's subtree, or
	// a set that leaves no processor standing — are rejected here with
	// typed errors before any structure is built.
	removed := make([]bool, n)
	explicit := make([]bool, n)
	for i, v := range d.Remove {
		if v < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("topo: remove[%d]: node %d outside [0,%d): %w", i, v, n, ErrRemoveRange)
		}
		if v == 0 {
			return nil, nil, fmt.Errorf("topo: remove[%d]: %w", i, ErrRemoveRoot)
		}
		if explicit[v] {
			return nil, nil, fmt.Errorf("topo: remove[%d]: node %d listed twice: %w", i, v, ErrOverlappingRemove)
		}
		explicit[v] = true
		removed[v] = true
	}
	if len(d.Remove) > 0 {
		steps := t.Rooted0().Steps()
		for i := 1; i < len(steps); i++ {
			if removed[steps[i].Parent] {
				if explicit[steps[i].V] {
					return nil, nil, fmt.Errorf("topo: remove: node %d is inside removed subtree under %d: %w",
						steps[i].V, steps[i].Parent, ErrOverlappingRemove)
				}
				removed[steps[i].V] = true
			}
		}
		survivors := 0
		for v := 0; v < n; v++ {
			if !removed[v] && t.Kind(tree.NodeID(v)) == tree.Processor {
				survivors++
			}
		}
		if survivors == 0 {
			grafted := false
			for _, g := range d.Add {
				if g.Kind == tree.Processor {
					grafted = true
					break
				}
			}
			if !grafted {
				return nil, nil, fmt.Errorf("topo: remove: %w", ErrNoProcessors)
			}
		}
	}

	// Grafts: validate parents and resolve them into the unified index
	// space (old nodes 0..n-1, grafted node i at n+i).
	parent := make([]int32, len(d.Add))
	for i, g := range d.Add {
		if g.Kind != tree.Processor && g.Kind != tree.Bus {
			return nil, nil, fmt.Errorf("topo: add[%d]: unknown kind %v: %w", i, g.Kind, ErrBadGraft)
		}
		if g.ParentAdded > 0 {
			j := g.ParentAdded - 1
			if j >= i {
				return nil, nil, fmt.Errorf("topo: add[%d]: ParentAdded %d must reference an earlier entry: %w", i, g.ParentAdded, ErrBadGraft)
			}
			if d.Add[j].Kind != tree.Bus {
				return nil, nil, fmt.Errorf("topo: add[%d]: parent add[%d] is a processor; grafts attach under buses: %w", i, j, ErrBadGraft)
			}
			parent[i] = int32(n + j)
			continue
		}
		p := g.Parent
		if p < 0 || int(p) >= n {
			return nil, nil, fmt.Errorf("topo: add[%d]: parent %d out of range [0,%d): %w", i, p, n, ErrBadGraft)
		}
		if removed[p] {
			return nil, nil, fmt.Errorf("topo: add[%d]: parent %d is removed by the same diff: %w", i, p, ErrBadGraft)
		}
		if t.Kind(p) != tree.Bus {
			return nil, nil, fmt.Errorf("topo: add[%d]: parent %d is a processor; grafts attach under buses: %w", i, p, ErrBadGraft)
		}
		parent[i] = int32(p)
	}

	// Unified adjacency and degrees over surviving old edges plus grafted
	// switches, for the degenerate-bus prune.
	alive := make([]bool, total)
	for v := 0; v < n; v++ {
		alive[v] = !removed[v]
	}
	for i := n; i < total; i++ {
		alive[i] = true
	}
	adj := make([][]int32, total)
	deg := make([]int, total)
	link := func(u, v int32) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		deg[u]++
		deg[v]++
	}
	for e := 0; e < ne; e++ {
		u, v := t.Endpoints(tree.EdgeID(e))
		if !removed[u] && !removed[v] {
			link(int32(u), int32(v))
		}
	}
	for i := range d.Add {
		link(parent[i], int32(n+i))
	}

	// Prune degenerate buses iteratively: a bus with at most one incident
	// switch is removed and its neighbor's degree drops, cascading.
	isBus := func(u int32) bool {
		if int(u) < n {
			return t.Kind(tree.NodeID(u)) == tree.Bus
		}
		return d.Add[int(u)-n].Kind == tree.Bus
	}
	queue := make([]int32, 0, 8)
	for u := int32(0); int(u) < total; u++ {
		if alive[u] && isBus(u) && deg[u] <= 1 {
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[u] || deg[u] > 1 {
			continue
		}
		alive[u] = false
		for _, v := range adj[u] {
			if !alive[v] {
				continue
			}
			deg[v]--
			if isBus(v) && deg[v] <= 1 {
				queue = append(queue, v)
			}
		}
	}

	// Bandwidth overrides (validated against the final survivor set;
	// duplicates: last wins).
	busBW := make(map[tree.NodeID]int64, len(d.SetBusBandwidth))
	for _, s := range d.SetBusBandwidth {
		if s.Node < 0 || int(s.Node) >= n {
			return nil, nil, fmt.Errorf("topo: set bus bandwidth: node %d out of range [0,%d): %w", s.Node, n, ErrBadBandwidth)
		}
		if !alive[s.Node] {
			return nil, nil, fmt.Errorf("topo: set bus bandwidth: node %d is removed: %w", s.Node, ErrBadBandwidth)
		}
		if t.Kind(s.Node) != tree.Bus {
			return nil, nil, fmt.Errorf("topo: set bus bandwidth: node %d is a processor: %w", s.Node, ErrBadBandwidth)
		}
		if s.Bandwidth < 1 {
			return nil, nil, fmt.Errorf("topo: set bus bandwidth: node %d bandwidth %d < 1: %w", s.Node, s.Bandwidth, ErrBadBandwidth)
		}
		busBW[s.Node] = s.Bandwidth
	}
	switchBW := make(map[tree.EdgeID]int64, len(d.SetSwitchBandwidth))
	for _, s := range d.SetSwitchBandwidth {
		if s.Edge < 0 || int(s.Edge) >= ne {
			return nil, nil, fmt.Errorf("topo: set switch bandwidth: edge %d out of range [0,%d): %w", s.Edge, ne, ErrBadBandwidth)
		}
		u, v := t.Endpoints(s.Edge)
		if !alive[u] || !alive[v] {
			return nil, nil, fmt.Errorf("topo: set switch bandwidth: edge %d is removed: %w", s.Edge, ErrBadBandwidth)
		}
		if s.Bandwidth < 1 {
			return nil, nil, fmt.Errorf("topo: set switch bandwidth: edge %d bandwidth %d < 1: %w", s.Edge, s.Bandwidth, ErrBadBandwidth)
		}
		switchBW[s.Edge] = s.Bandwidth
	}

	// Renumber and rebuild: surviving old nodes in old order, then
	// surviving grafts in Add order; edges likewise.
	m := &Remap{
		Node:  make([]tree.NodeID, n),
		Edge:  make([]tree.EdgeID, ne),
		Added: make([]tree.NodeID, len(d.Add)),
	}
	b := tree.NewBuilder()
	for v := 0; v < n; v++ {
		if !alive[v] {
			m.Node[v] = tree.None
			continue
		}
		id := tree.NodeID(v)
		var nv tree.NodeID
		if t.Kind(id) == tree.Processor {
			nv = b.AddProcessor(t.NameRaw(id))
		} else {
			bw := t.NodeBandwidth(id)
			if o, ok := busBW[id]; ok {
				bw = o
			}
			nv = b.AddBus(t.NameRaw(id), bw)
		}
		m.Node[v] = nv
		m.NodeBack = append(m.NodeBack, id)
	}
	for i, g := range d.Add {
		if !alive[n+i] {
			m.Added[i] = tree.None
			continue
		}
		var nv tree.NodeID
		if g.Kind == tree.Processor {
			nv = b.AddProcessor(g.Name)
		} else {
			bw := g.Bandwidth
			if bw == 0 {
				bw = 1
			}
			nv = b.AddBus(g.Name, bw)
		}
		m.Added[i] = nv
		m.NodeBack = append(m.NodeBack, tree.None)
	}
	newID := func(u int32) tree.NodeID {
		if int(u) < n {
			return m.Node[u]
		}
		return m.Added[int(u)-n]
	}
	for e := 0; e < ne; e++ {
		u, v := t.Endpoints(tree.EdgeID(e))
		if !alive[u] || !alive[v] {
			m.Edge[e] = tree.NoEdge
			continue
		}
		bw := t.EdgeBandwidth(tree.EdgeID(e))
		if o, ok := switchBW[tree.EdgeID(e)]; ok {
			bw = o
		}
		m.Edge[e] = b.Connect(m.Node[u], m.Node[v], bw)
		m.EdgeBack = append(m.EdgeBack, tree.EdgeID(e))
	}
	for i, g := range d.Add {
		if !alive[n+i] {
			continue
		}
		p := newID(parent[i])
		if p == tree.None {
			// The parent was pruned as a degenerate bus while this graft
			// survived on its own children (e.g. replacing all capacity
			// under an old bus in one diff): the grafted subtree takes the
			// pruned parent's place, so its connecting switch simply never
			// materializes. If that genuinely disconnects the network, the
			// connectivity validation below rejects the diff.
			continue
		}
		bw := g.SwitchBandwidth
		if bw == 0 {
			bw = 1
		}
		b.Connect(p, m.Added[i], bw)
		m.EdgeBack = append(m.EdgeBack, tree.NoEdge)
	}

	nt, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("topo: %w", err)
	}
	if err := nt.ValidateHBN(); err != nil {
		return nil, nil, fmt.Errorf("topo: %w", err)
	}
	return nt, m, nil
}
