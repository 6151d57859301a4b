package tree

import (
	"bytes"
	"math/rand"
	"testing"
)

// fig2 builds the Figure 2 network of the paper: a top bus over two
// sub-buses, each with processors.
func fig2(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	top := b.AddBus("top", 10)
	left := b.AddBus("left", 5)
	right := b.AddBus("right", 5)
	b.Connect(top, left, 4)
	b.Connect(top, right, 4)
	for i := 0; i < 3; i++ {
		p := b.AddProcessor("")
		b.Connect(left, p, 1)
	}
	for i := 0; i < 2; i++ {
		p := b.AddProcessor("")
		b.Connect(right, p, 1)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuilderBasics(t *testing.T) {
	tr := fig2(t)
	if got, want := tr.Len(), 8; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := tr.NumEdges(), 7; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if got, want := tr.NumLeaves(), 5; got != want {
		t.Fatalf("NumLeaves = %d, want %d", got, want)
	}
	if got, want := len(tr.Buses()), 3; got != want {
		t.Fatalf("Buses = %d, want %d", got, want)
	}
	if tr.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d, want 4", tr.MaxDegree())
	}
	if err := tr.ValidateHBN(); err != nil {
		t.Fatalf("ValidateHBN: %v", err)
	}
	if tr.Kind(0) != Bus || tr.Kind(3) != Processor {
		t.Fatal("wrong kinds")
	}
	if tr.Name(0) != "top" {
		t.Fatalf("Name(0) = %q", tr.Name(0))
	}
	if tr.Name(3) == "" {
		t.Fatal("auto name empty")
	}
}

func TestBuilderRejectsReuse(t *testing.T) {
	b := NewBuilder()
	p0 := b.AddProcessor("")
	p1 := b.AddProcessor("")
	b.Connect(p0, p1, 1)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build must fail")
	}
}

func TestValidateRejectsDisconnected(t *testing.T) {
	b := NewBuilder()
	b.AddProcessor("")
	b.AddProcessor("")
	b.AddProcessor("")
	b.AddProcessor("")
	b.Connect(0, 1, 1)
	b.Connect(2, 3, 1)
	b.Connect(0, 1, 1) // duplicate edge keeps |E| = |V|-1 but disconnected
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestValidateRejectsSelfLoopAndBadBandwidth(t *testing.T) {
	b := NewBuilder()
	p := b.AddProcessor("")
	b.AddProcessor("")
	b.Connect(p, p, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop accepted")
	}

	b2 := NewBuilder()
	p0 := b2.AddProcessor("")
	p1 := b2.AddProcessor("")
	b2.Connect(p0, p1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("zero-bandwidth edge accepted")
	}
}

func TestValidateHBNContract(t *testing.T) {
	// Inner processor: path p0 - p1 - p2 where p1 is a processor.
	b := NewBuilder()
	p0 := b.AddProcessor("")
	p1 := b.AddProcessor("")
	p2 := b.AddProcessor("")
	b.Connect(p0, p1, 1)
	b.Connect(p1, p2, 1)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidateHBN(); err == nil {
		t.Fatal("inner processor accepted by ValidateHBN")
	}

	// Leaf bus.
	b2 := NewBuilder()
	bus := b2.AddBus("", 2)
	bus2 := b2.AddBus("", 2)
	b2.Connect(bus, bus2, 2)
	tr2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.ValidateHBN(); err == nil {
		t.Fatal("leaf bus accepted by ValidateHBN")
	}

	// Processor switch with bandwidth != 1.
	b3 := NewBuilder()
	hub := b3.AddBus("", 2)
	q0 := b3.AddProcessor("")
	q1 := b3.AddProcessor("")
	b3.Connect(hub, q0, 2)
	b3.Connect(hub, q1, 1)
	tr3, err := b3.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr3.ValidateHBN(); err == nil {
		t.Fatal("bandwidth-2 processor switch accepted")
	}
}

func TestSingleNodeTree(t *testing.T) {
	b := NewBuilder()
	b.AddProcessor("solo")
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidateHBN(); err != nil {
		t.Fatalf("single processor should be a valid HBN: %v", err)
	}
	r := tr.Rooted(0)
	if r.Height != 0 || len(r.Order) != 1 {
		t.Fatalf("rooted single node: height=%d order=%v", r.Height, r.Order)
	}
}

func TestEdgeBetweenAndOther(t *testing.T) {
	tr := fig2(t)
	e, ok := tr.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("edge 0-1 not found")
	}
	if got := tr.Other(e, 0); got != 1 {
		t.Fatalf("Other = %d", got)
	}
	if got := tr.Other(e, 1); got != 0 {
		t.Fatalf("Other = %d", got)
	}
	if _, ok := tr.EdgeBetween(3, 4); ok {
		t.Fatal("phantom edge 3-4")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint must panic")
		}
	}()
	tr.Other(e, 5)
}

func TestRootedStructure(t *testing.T) {
	tr := fig2(t)
	r := tr.Rooted(0)
	if r.Height != 2 {
		t.Fatalf("Height = %d, want 2", r.Height)
	}
	if r.Parent[0] != None || r.ParentEdge[0] != NoEdge {
		t.Fatal("root parent not None")
	}
	if r.Parent[3] != 1 {
		t.Fatalf("Parent[3] = %d, want 1", r.Parent[3])
	}
	if r.Level(0) != 2 || r.Level(3) != 0 {
		t.Fatalf("levels wrong: %d %d", r.Level(0), r.Level(3))
	}
	// Preorder property: parent before child.
	pos := make(map[NodeID]int)
	for i, v := range r.Order {
		pos[v] = i
	}
	for v := 0; v < tr.Len(); v++ {
		if p := r.Parent[NodeID(v)]; p != None && pos[p] > pos[NodeID(v)] {
			t.Fatalf("node %d before its parent %d in Order", v, p)
		}
	}
	// Children of the top bus.
	ch := r.Children(0)
	if len(ch) != 2 {
		t.Fatalf("Children(0) = %v", ch)
	}
}

func TestLCAAndPaths(t *testing.T) {
	tr := fig2(t)
	r := tr.Rooted(0)
	// Leaves 3,4,5 under left bus (1); 6,7 under right (2).
	if got := r.LCA(3, 4); got != 1 {
		t.Fatalf("LCA(3,4) = %d, want 1", got)
	}
	if got := r.LCA(3, 6); got != 0 {
		t.Fatalf("LCA(3,6) = %d, want 0", got)
	}
	if got := r.LCA(3, 3); got != 3 {
		t.Fatalf("LCA(3,3) = %d", got)
	}
	if got := r.PathLen(3, 6); got != 4 {
		t.Fatalf("PathLen(3,6) = %d, want 4", got)
	}
	if got := r.PathLen(3, 3); got != 0 {
		t.Fatalf("PathLen(3,3) = %d, want 0", got)
	}

	var edges []EdgeID
	var dirs []Dir
	r.VisitPath(3, 6, func(e EdgeID, d Dir) {
		edges = append(edges, e)
		dirs = append(dirs, d)
	})
	if len(edges) != 4 {
		t.Fatalf("path 3→6 has %d edges", len(edges))
	}
	if dirs[0] != Up || dirs[1] != Up || dirs[2] != Down || dirs[3] != Down {
		t.Fatalf("directions %v", dirs)
	}
	// Path endpoints must match edge structure: first edge touches 3.
	u, v := tr.Endpoints(edges[0])
	if u != 3 && v != 3 {
		t.Fatal("first path edge does not touch source")
	}
}

func TestSubtreeSums(t *testing.T) {
	tr := fig2(t)
	r := tr.Rooted(0)
	val := make([]int64, tr.Len())
	for _, l := range tr.Leaves() {
		val[l] = 1
	}
	sums := r.SubtreeSums(val)
	if sums[0] != 5 {
		t.Fatalf("root sum = %d, want 5", sums[0])
	}
	if sums[1] != 3 || sums[2] != 2 {
		t.Fatalf("bus sums = %d,%d", sums[1], sums[2])
	}
	if sums[3] != 1 {
		t.Fatalf("leaf sum = %d", sums[3])
	}
}

func TestNodesByLevel(t *testing.T) {
	tr := fig2(t)
	r := tr.Rooted(0)
	lv := r.NodesByLevel()
	if len(lv) != 3 {
		t.Fatalf("levels = %d", len(lv))
	}
	if len(lv[2]) != 1 || lv[2][0] != 0 {
		t.Fatalf("top level %v", lv[2])
	}
	if len(lv[0]) != 5 {
		t.Fatalf("bottom level %v", lv[0])
	}
}

func TestSteinerEdges(t *testing.T) {
	tr := fig2(t)
	r := tr.Rooted(0)
	// Steiner of {3,4}: both under left bus: edges (1,3),(1,4).
	mask, n := SteinerEdges(r, []NodeID{3, 4})
	if n != 2 {
		t.Fatalf("steiner {3,4} = %d edges", n)
	}
	e34, _ := tr.EdgeBetween(1, 3)
	if !mask[e34] {
		t.Fatal("edge 1-3 missing from Steiner tree")
	}
	// Steiner of {3,6}: crosses the top bus: 4 edges.
	_, n = SteinerEdges(r, []NodeID{3, 6})
	if n != 4 {
		t.Fatalf("steiner {3,6} = %d edges, want 4", n)
	}
	// Singleton and empty.
	if _, n := SteinerEdges(r, []NodeID{3}); n != 0 {
		t.Fatal("singleton must be empty")
	}
	if _, n := SteinerEdges(r, nil); n != 0 {
		t.Fatal("empty must be empty")
	}
	// Duplicates are tolerated.
	if _, n := SteinerEdges(r, []NodeID{3, 3, 4}); n != 2 {
		t.Fatal("duplicate members change the Steiner tree")
	}
	// Members including an inner node.
	if _, n := SteinerEdges(r, []NodeID{1, 6}); n != 3 {
		t.Fatal("steiner {1,6} should have 3 edges")
	}
}

func TestNearestInSet(t *testing.T) {
	tr := fig2(t)
	nearest, dist := NearestInSet(tr, []NodeID{3, 6})
	if nearest[3] != 3 || dist[3] != 0 {
		t.Fatal("member not nearest to itself")
	}
	if nearest[4] != 3 || dist[4] != 2 {
		t.Fatalf("nearest[4] = %d (d=%d), want 3 (d=2)", nearest[4], dist[4])
	}
	if nearest[7] != 6 || dist[7] != 2 {
		t.Fatalf("nearest[7] = %d (d=%d)", nearest[7], dist[7])
	}
	if nearest[0] == None {
		t.Fatal("inner node unreached")
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]*Tree{
		"star":        Star(6, 8),
		"kary":        BalancedKAry(3, 3, 0),
		"random":      Random(rng, 30, 5, 0.4, 16),
		"caterpillar": Caterpillar(6, 3, 4, 8),
		"sci":         SCICluster(4, 3, 16, 8),
	}
	for name, tr := range gens {
		if err := tr.ValidateHBN(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if got := Star(6, 8).NumLeaves(); got != 6 {
		t.Errorf("star leaves = %d", got)
	}
	if got := BalancedKAry(3, 3, 0).NumLeaves(); got != 27 {
		t.Errorf("3-ary depth-3 leaves = %d, want 27", got)
	}
	if tr := Random(rng, 50, 6, 0.5, 4); tr.NumLeaves() < 50 {
		t.Errorf("random tree has %d leaves, want >= 50", tr.NumLeaves())
	}
	cat := Caterpillar(6, 3, 4, 8)
	if h := cat.Rooted(0).Height; h < 5 {
		t.Errorf("caterpillar height = %d, want >= 5", h)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(11)), 40, 5, 0.4, 8)
	b := Random(rand.New(rand.NewSource(11)), 40, 5, 0.4, 8)
	if a.Len() != b.Len() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different trees")
	}
	for e := 0; e < a.NumEdges(); e++ {
		au, av := a.Endpoints(EdgeID(e))
		bu, bv := b.Endpoints(EdgeID(e))
		if au != bu || av != bv || a.EdgeBandwidth(EdgeID(e)) != b.EdgeBandwidth(EdgeID(e)) {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := fig2(t)
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || got.NumEdges() != orig.NumEdges() {
		t.Fatal("size mismatch after round trip")
	}
	for v := 0; v < orig.Len(); v++ {
		id := NodeID(v)
		if got.Kind(id) != orig.Kind(id) || got.NodeBandwidth(id) != orig.NodeBandwidth(id) {
			t.Fatalf("node %d differs", v)
		}
	}
	for e := 0; e < orig.NumEdges(); e++ {
		id := EdgeID(e)
		gu, gv := got.Endpoints(id)
		ou, ov := orig.Endpoints(id)
		if gu != ou || gv != ov || got.EdgeBandwidth(id) != orig.EdgeBandwidth(id) {
			t.Fatalf("edge %d differs", e)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(bytes.NewBufferString(`{"nodes":[{"id":5,"kind":"bus"}],"edges":[]}`)); err == nil {
		t.Fatal("non-dense IDs accepted")
	}
	if _, err := Decode(bytes.NewBufferString(`{"nodes":[{"id":0,"kind":"alien"}],"edges":[]}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// A tree is encoded once: JSON returns the same slice on every call,
// Encode writes exactly it, and a tree decoded from it encodes to the same
// bytes, from a memo of its own.
func TestJSONEncodedOnce(t *testing.T) {
	tr := SCICluster(3, 4, 16, 8)
	a, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.JSON()
	if err != nil || len(a) == 0 || &a[0] != &b[0] {
		t.Fatalf("second JSON call returned a different slice (err %v)", err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil || !bytes.Equal(buf.Bytes(), a) {
		t.Fatalf("Encode wrote %d bytes (err %v), not the %d of JSON", buf.Len(), err, len(a))
	}
	tr2, err := Decode(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	c, err := tr2.JSON()
	if err != nil || !bytes.Equal(c, a) || &c[0] == &a[0] {
		t.Fatalf("decoded tree's JSON: equal %v, shared %v, err %v; want equal bytes of its own", bytes.Equal(c, a), &c[0] == &a[0], err)
	}
}
