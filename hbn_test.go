package hbn

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func buildExample(t *testing.T) (*Tree, *Workload) {
	t.Helper()
	b := NewNetworkBuilder()
	bus := b.AddBus("ring", 16)
	p0 := b.AddProcessor("p0")
	p1 := b.AddProcessor("p1")
	p2 := b.AddProcessor("p2")
	b.Connect(bus, p0, 1)
	b.Connect(bus, p1, 1)
	b.Connect(bus, p2, 1)
	tr := b.MustBuildHBN()
	w := NewWorkload(2, tr.Len())
	w.AddReads(0, p0, 100)
	w.AddWrites(0, p1, 10)
	w.AddWrites(1, p2, 25)
	return tr, w
}

func TestPublicSolve(t *testing.T) {
	tr, w := buildExample(t)
	res, err := Solve(tr, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Final.LeafOnly(tr) {
		t.Fatal("not leaf-only")
	}
	rep := Evaluate(tr, res.Final)
	if !rep.Congestion.Eq(res.Report.Congestion) {
		t.Fatal("Evaluate disagrees with Result.Report")
	}
	if res.ApproxRatio() > 7 {
		t.Fatalf("ratio %v > 7", res.ApproxRatio())
	}
}

// The public reusable-solver API: warm reuse and incremental Resolve must
// match the one-shot Solve exactly (the deep properties live in
// internal/core/solver_test.go; this pins the re-exported surface).
func TestPublicSolver(t *testing.T) {
	tr, w := buildExample(t)
	s, err := NewSolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(tr, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Congestion.Eq(want.Report.Congestion) {
		t.Fatal("warm Solver disagrees with one-shot Solve")
	}
	w.AddReads(1, tr.Leaves()[0], 300)
	res, err = s.Resolve([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	want, err = Solve(tr, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Congestion.Eq(want.Report.Congestion) {
		t.Fatal("Resolve disagrees with a fresh Solve on the mutated workload")
	}
}

func TestPublicSolveDistributed(t *testing.T) {
	tr, w := buildExample(t)
	seq, err := Solve(tr, w)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := SolveDistributed(tr, w, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if !got.Report.Congestion.Eq(seq.Report.Congestion) {
		t.Fatalf("distributed congestion %v ≠ sequential %v",
			got.Report.Congestion, seq.Report.Congestion)
	}
}

func TestPublicBaselines(t *testing.T) {
	tr, w := buildExample(t)
	for _, name := range BaselineNames() {
		p, err := Baseline(name, 1, tr, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(tr, w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublicGenerators(t *testing.T) {
	for _, tr := range []*Tree{
		Star(5, 8),
		BalancedKAry(2, 3, 0),
		SCICluster(3, 4, 16, 8),
		Caterpillar(4, 2, 8, 8),
	} {
		if err := tr.ValidateHBN(); err != nil {
			t.Fatal(err)
		}
	}
	n := Figure1(3, 16, 8)
	m, err := n.BusTree()
	if err != nil {
		t.Fatal(err)
	}
	if m.Tree.NumLeaves() != 6 {
		t.Fatal("figure 1 transformation wrong")
	}
}

func TestPublicOnline(t *testing.T) {
	tr, _ := buildExample(t)
	s, err := NewOnline(tr, 1, 2)
	if err != nil || s == nil {
		t.Fatalf("NewOnline: %v (strategy %v)", err, s)
	}
	if _, err := NewOnline(tr, 1, 0); !errors.Is(err, ErrBadOnlineOptions) {
		t.Fatalf("threshold 0 error = %v, want ErrBadOnlineOptions", err)
	}
	if ba, err := NewOnlineBandwidthAware(tr, 1, 2); err != nil || ba == nil {
		t.Fatalf("NewOnlineBandwidthAware: %v", err)
	}
}

// The public elastic-topology API: ApplyDiff reconfigures a tree with a
// consistent remap, Migrate carries workload and copy sets across, and a
// live Cluster survives a leaf failure through Reconfigure (the deep
// properties live in internal/topo and internal/serve; this pins the
// re-exported surface).
func TestPublicReconfigure(t *testing.T) {
	tr, w := buildExample(t)
	victim := tr.Leaves()[2]
	nt, remap, err := ApplyDiff(tr, TopologyDiff{
		Remove: []NodeID{victim},
		Add:    []Graft{{Kind: Processor, Name: "p3", Parent: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.ValidateHBN(); err != nil {
		t.Fatal(err)
	}
	if nt.Len() != tr.Len() || remap.Node[victim] != None {
		t.Fatalf("unexpected reconfigured shape: %d nodes", nt.Len())
	}

	mig, err := Migrate(tr, TopologyDiff{Remove: []NodeID{victim}}, w, [][]NodeID{{tr.Leaves()[0]}, {victim}})
	if err != nil {
		t.Fatal(err)
	}
	if len(mig.Recovered) != 1 || mig.Recovered[0] != 1 {
		t.Fatalf("recovered %v, want object 1 (its only copy sat on the victim)", mig.Recovered)
	}
	if len(mig.Projected[0]) != 1 || mig.Projected[0][0] != mig.Remap.Node[tr.Leaves()[0]] {
		t.Fatal("surviving copy moved")
	}

	c, err := NewCluster(tr, 2, ClusterOptions{Shards: 2, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	if _, err := c.Ingest([]TraceEvent{
		{Object: 0, Node: leaves[0]}, {Object: 0, Node: leaves[1]},
		{Object: 1, Node: victim}, {Object: 1, Node: victim, Write: true},
	}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Reconfigure(TopologyDiff{Remove: []NodeID{victim}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Remap == nil || c.Tree().Len() != tr.Len()-1 {
		t.Fatal("cluster did not switch topology")
	}
	for x := 0; x < 2; x++ {
		if len(c.Copies(x)) == 0 {
			t.Fatalf("object %d lost its copies", x)
		}
	}
	if st := c.Stats(); st.Reconfigs != 1 || st.Requests != 4 {
		t.Fatalf("stats after reconfigure: %+v", st)
	}
}

// Property: for random star workloads the solver's congestion always sits
// between the certified lower bound and 7× the lower bound.
func TestQuickSolveBounds(t *testing.T) {
	tr := Star(5, 8)
	f := func(rates [5]uint8, writes [5]uint8) bool {
		w := NewWorkload(1, tr.Len())
		any := false
		for i, leaf := range tr.Leaves() {
			r, wr := int64(rates[i]%32), int64(writes[i]%8)
			if r+wr > 0 {
				any = true
			}
			w.Set(0, leaf, Access{Reads: r, Writes: wr})
		}
		if !any {
			return true
		}
		res, err := Solve(tr, w)
		if err != nil {
			return false
		}
		if res.Report.Congestion.Less(res.LowerBound()) {
			return false
		}
		if res.LowerBound().Num > 0 && res.ApproxRatio() > 7.0+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// The public durability API: Snapshot checkpoints a live cluster,
// Restore recovers a bit-identically-serving one, and corruption and
// absence report the re-exported typed sentinels (the deep properties —
// crash-point sweeps, exhaustive corruption rejection — live in
// internal/snapshot, internal/serve and internal/chaos; this pins the
// public surface).
func TestPublicDurability(t *testing.T) {
	tr, _ := buildExample(t)
	c, err := NewCluster(tr, 2, ClusterOptions{Shards: 2, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leaves := tr.Leaves()
	trace := []TraceEvent{
		{Object: 0, Node: leaves[0]}, {Object: 0, Node: leaves[1]},
		{Object: 1, Node: leaves[2]}, {Object: 1, Node: leaves[2], Write: true},
	}
	if _, err := c.Ingest(trace); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cluster.hbn")
	ss, err := c.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Bytes <= 0 || ss.CutStall > ss.Elapsed {
		t.Fatalf("implausible snapshot stats: %+v", ss)
	}

	r, info, err := Restore(path, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.Fallback || info.Seq != ss.Seq {
		t.Fatalf("restore info: %+v, want primary generation %d", info, ss.Seq)
	}
	if got, want := r.Stats(), c.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	ca, err := c.Ingest(trace)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := r.Ingest(trace)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("restored cluster served differently: cost %d vs %d", cb, ca)
	}

	// Typed sentinels through the public surface.
	if _, _, err := Restore(filepath.Join(t.TempDir(), "void.hbn"), RestoreOptions{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing snapshot: %v, want ErrNoSnapshot", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	broken := filepath.Join(t.TempDir(), "broken.hbn")
	if err := os.WriteFile(broken, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(broken, RestoreOptions{}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot: %v, want ErrSnapshotCorrupt", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(trace); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("ingest after close: %v, want ErrClusterClosed", err)
	}
}
