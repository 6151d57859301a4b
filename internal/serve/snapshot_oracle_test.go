package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"hbn/internal/dynamic"
	"hbn/internal/snapshot"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// captureLocked is the copy-based cut Snapshot used before it encoded
// from live state: every table, load account, drift queue and object is
// cloned into a State that owns its memory (caller holds epochMu and the
// full ingest gate). snapshot.Encode of its result is the oracle the
// one-pass image must equal byte for byte.
func (c *Cluster) captureLocked() *snapshot.State {
	st := &snapshot.State{
		Seq:        c.snapSeq,
		Tree:       c.t,
		NumObjects: c.numObjects,

		EpochRequests:      c.opts.EpochRequests,
		Threshold:          c.opts.Threshold,
		BandwidthAware:     c.opts.BandwidthAware,
		WriteBudget:        c.opts.WriteBudget,
		DriftThreshold:     c.opts.DriftThreshold,
		DriftCheckRequests: c.opts.DriftCheckRequests,

		Solved:             c.solved,
		Served:             c.served.Load(),
		Epochs:             c.stats.Epochs,
		DriftEpochs:        c.stats.DriftEpochs,
		Reconfigs:          c.stats.Reconfigs,
		DriftedTotal:       c.stats.Drifted,
		AdoptMoved:         c.stats.AdoptMoved,
		ResolveTimeNs:      c.stats.ResolveTime.Nanoseconds(),
		DroppedLoad:        c.stats.DroppedLoad,
		DroppedServiceLoad: c.stats.DroppedServiceLoad,
		EpochLog:           slices.Clone(c.epochLog),
		SolverW:            c.w.Clone(),
		PrevW:              c.prev.Clone(),
		TrackerW:           c.freq.Clone(),

		ShardStates: make([]snapshot.ShardState, len(c.shards)),
		Objects:     make([]dynamic.ObjectState, c.numObjects),
	}
	for si, sh := range c.shards {
		sh.mu.Lock()
		st.ShardStates[si] = snapshot.ShardState{
			EdgeLoad: slices.Clone(sh.strat.EdgeLoad),
			MoveLoad: slices.Clone(sh.strat.MoveLoad()),
			Requests: sh.strat.Requests(),
			Cost:     sh.cost,
			Drift:    slices.Clone(sh.tracker.Drifted()),
		}
		for x := si; x < c.numObjects; x += len(c.shards) {
			sh.strat.ExportObjectInto(x, &st.Objects[x])
		}
		sh.mu.Unlock()
	}
	return st
}

// checkImageAgainstOracle snapshots c to path and requires the written
// image to equal the oracle's encoding of a copy-based capture, then
// returns the decoded image. The oracle is captured from the BeforeWrite
// hook: the gate is released but the flag still excludes
// reconfigurations, nothing is ingested in between, and the sequence
// number is the one the image carries.
func checkImageAgainstOracle(t *testing.T, c *Cluster, path string) *snapshot.State {
	t.Helper()
	var want []byte
	ss, err := c.SnapshotWith(path, snapshot.SaveOptions{BeforeWrite: func() {
		c.epochMu.Lock()
		var st *snapshot.State
		c.quiesce(func() { st = c.captureLocked() })
		c.epochMu.Unlock()
		want = snapshot.Encode(st)
	}})
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("%s: live image (%d bytes) differs from the oracle (%d bytes)", filepath.Base(path), len(img), len(want))
	}
	if ss.Bytes != int64(len(img)) {
		t.Fatalf("stats report %d bytes, the file holds %d", ss.Bytes, len(img))
	}
	if ss.EncodeElapsed > ss.CutStall {
		t.Fatalf("encode %v is not a part of the cut stall %v", ss.EncodeElapsed, ss.CutStall)
	}
	st, err := snapshot.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The image Snapshot encodes from live state equals snapshot.Encode of
// the copy-based capture, byte for byte, across the topology zoo at one
// and several shards, with the drift trigger armed and not, for three
// snapshots in a row with serving between them (each cut mid-epoch, so
// drift queues are non-empty), after a Restore and after a Reconfigure.
// Objects move between table-backed and connected mode along the way; the
// image holds no mode, so the test derives it from each copy set.
func TestSnapshotImageMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	switched := 0
	for _, tc := range testTrees(rng) {
		for _, shards := range []int{1, 4} {
			for _, drift := range []float64{0, 0.3} {
				t.Run(fmt.Sprintf("%s/shards=%d/drift=%v", tc.name, shards, drift), func(t *testing.T) {
					const objects = 40
					trace := workload.DriftingZipf(rand.New(rand.NewSource(11)), tc.tr, objects, 5800, 4, 1.0, 0.08)
					c, err := NewCluster(tc.tr, objects, Options{
						Shards: shards, EpochRequests: 900, Threshold: 3, DriftThreshold: drift,
					})
					if err != nil {
						t.Fatal(err)
					}
					dir := t.TempDir()

					tableMode := map[int]bool{} // present object → table-backed at the last snapshot
					prev := 0
					var st *snapshot.State
					for _, cut := range []int{1700, 3100, 4450} {
						ingestAll(t, c, trace[prev:cut], 128)
						prev = cut
						st = checkImageAgainstOracle(t, c, filepath.Join(dir, "snap.hbn"))
						drifting := 0
						for _, ss := range st.ShardStates {
							if len(ss.Drift) > 0 {
								drifting++
							}
						}
						if drifting == 0 {
							t.Fatalf("cut at %d: no shard has a drift queue to encode", cut)
						}
						for x, o := range st.Objects {
							if !o.Present {
								continue
							}
							table := tableBacked(st.Tree, o.Copies)
							if was, seen := tableMode[x]; seen && was != table {
								switched++
							}
							tableMode[x] = table
						}
					}
					table, connected := 0, 0
					for _, o := range st.Objects {
						if o.Present && tableBacked(st.Tree, o.Copies) {
							table++
						} else if o.Present {
							connected++
						}
					}
					if table == 0 || connected == 0 {
						t.Fatalf("the last image holds %d table-backed and %d connected objects; want both modes", table, connected)
					}

					r, _, err := Restore(filepath.Join(dir, "snap.hbn"), RestoreOptions{})
					if err != nil {
						t.Fatal(err)
					}
					ingestAll(t, r, trace[prev:], 128)
					checkImageAgainstOracle(t, r, filepath.Join(dir, "restored.hbn"))

					leaves := tc.tr.Leaves()
					if _, err := r.Reconfigure(topo.Diff{Remove: []tree.NodeID{leaves[len(leaves)-1]}}); err != nil {
						t.Fatal(err)
					}
					after := workload.DriftingZipf(rand.New(rand.NewSource(12)), r.Tree(), objects, 1300, 2, 1.0, 0.08)
					ingestAll(t, r, after, 128)
					checkImageAgainstOracle(t, r, filepath.Join(dir, "reconfigured.hbn"))
				})
			}
		}
	}
	if switched == 0 {
		t.Fatal("no object changed serving mode between two snapshots")
	}
}

// The image does not depend on how many ranges encode it: at Parallelism
// 1, 2, 3 and 4 (GOMAXPROCS raised so that every count is a real worker
// count), on 1, 2 and 3 shards, with 37 objects, a count that none of 2, 3
// and 4 divides, every image equals the oracle's one-worker encoding of a
// copy-based capture, byte for byte. Each cut falls mid-epoch, so the drift
// queues are non-empty, and after a pass, so the last-fold table is too.
func TestSnapshotImageIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 37
	trace := workload.DriftingZipf(rand.New(rand.NewSource(23)), tr, objects, 4000, 3, 1.0, 0.08)
	for _, shards := range []int{1, 2, 3} {
		for p := 1; p <= 4; p++ {
			t.Run(fmt.Sprintf("shards=%d/parallelism=%d", shards, p), func(t *testing.T) {
				c, err := NewCluster(tr, objects, Options{Shards: shards, Parallelism: p, EpochRequests: 700, Threshold: 3})
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				prev := 0
				for _, cut := range []int{1500, 2650, 3900} {
					ingestAll(t, c, trace[prev:cut], 96)
					prev = cut
					st := checkImageAgainstOracle(t, c, filepath.Join(dir, "snap.hbn"))
					queued := 0
					for _, ss := range st.ShardStates {
						queued += len(ss.Drift)
					}
					if queued == 0 || st.Epochs == 0 {
						t.Fatalf("cut at %d: %d queued drifted objects after %d passes; want both non-zero", cut, queued, st.Epochs)
					}
				}
			})
		}
	}
}

// tableBacked reports whether a copy set is served from nearest tables:
// one that is neither a single copy nor connected, i.e. has more than one
// copy whose parent is not a copy.
func tableBacked(t *tree.Tree, copies []tree.NodeID) bool {
	parent := t.Rooted0().Parent
	tops := 0
	for _, v := range copies {
		if p := parent[v]; p == tree.None || !slices.Contains(copies, p) {
			tops++
		}
	}
	return tops > 1
}
