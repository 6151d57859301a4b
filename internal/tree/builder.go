package tree

import "fmt"

// Builder constructs Trees incrementally. Add nodes with AddProcessor and
// AddBus, connect them with Connect, then call Build. A Builder must not be
// reused after Build.
type Builder struct {
	nodes []node
	edges []edge
	built bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddProcessor adds a processor (leaf) node and returns its ID. The name is
// optional ("" yields an automatic name).
func (b *Builder) AddProcessor(name string) NodeID {
	b.nodes = append(b.nodes, node{kind: Processor, name: name, bw: 1})
	return NodeID(len(b.nodes) - 1)
}

// AddBus adds a bus (inner) node with the given bandwidth and returns its
// ID. Bandwidth must be >= 1.
func (b *Builder) AddBus(name string, bandwidth int64) NodeID {
	b.nodes = append(b.nodes, node{kind: Bus, name: name, bw: bandwidth})
	return NodeID(len(b.nodes) - 1)
}

// Connect adds an undirected edge (switch) of the given bandwidth between
// u and v and returns its ID. Bandwidth must be >= 1.
func (b *Builder) Connect(u, v NodeID, bandwidth int64) EdgeID {
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, edge{u: u, v: v, bw: bandwidth})
	return id
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build validates and freezes the tree. The Builder must not be used
// afterwards.
func (b *Builder) Build() (*Tree, error) {
	if b.built {
		return nil, fmt.Errorf("tree: Builder reused after Build")
	}
	b.built = true
	t := &Tree{nodes: b.nodes, edges: b.edges}
	for i, e := range t.edges {
		if e.u < 0 || int(e.u) >= len(t.nodes) || e.v < 0 || int(e.v) >= len(t.nodes) {
			return nil, fmt.Errorf("tree: edge %d joins unknown nodes (%d,%d)", i, e.u, e.v)
		}
		t.nodes[e.u].adj = append(t.nodes[e.u].adj, Half{To: e.v, Edge: EdgeID(i)})
		t.nodes[e.v].adj = append(t.nodes[e.v].adj, Half{To: e.u, Edge: EdgeID(i)})
	}
	for v := range t.nodes {
		if d := len(t.nodes[v].adj); d > t.maxDeg {
			t.maxDeg = d
		}
		if len(t.nodes[v].adj) <= 1 {
			t.leaves = append(t.leaves, NodeID(v))
		} else {
			t.inner = append(t.inner, NodeID(v))
		}
		if t.nodes[v].kind == Bus {
			t.buses = append(t.buses, NodeID(v))
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build for tests and examples with statically correct input;
// it panics on error.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// MustBuildHBN is MustBuild followed by ValidateHBN.
func (b *Builder) MustBuildHBN() *Tree {
	t := b.MustBuild()
	if err := t.ValidateHBN(); err != nil {
		panic(err)
	}
	return t
}
