package snapshot

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"hbn/internal/dynamic"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// mkDenseState builds a state whose tables need every width of the
// codec's section counts and values: SolverW holds more than 2^14 nonzero
// cells (a 3-byte count), the last-fold rows pw more than 2^7 (2 bytes),
// shard 0's tracker section a handful of cells since the last fold (1
// byte) and shard 1's none, and frequencies reach 2^7, 2^14 and 2^35 (2-,
// 3- and 6-byte values). TrackerW is pw plus those cells, so it is at or
// above pw everywhere, as a cluster keeps it.
func mkDenseState() *State {
	tr := tree.SCICluster(4, 4, 16, 8)
	n, ne := tr.Len(), tr.NumEdges()
	leaves := tr.Leaves()
	objects := (1<<14)/n + 16

	sw := workload.New(objects, n)
	for x := 0; x < objects; x++ {
		for v := 0; v < n; v++ {
			sw.Set(x, tree.NodeID(v), workload.Access{Reads: int64((x*31+v*7)%97 + 1), Writes: int64((x + v) % 3)})
		}
	}
	sw.Set(1, leaves[0], workload.Access{Reads: 1 << 7, Writes: 1 << 14})
	sw.Set(2, leaves[1], workload.Access{Reads: 1 << 14, Writes: 1<<7 - 1})
	sw.Set(objects-1, leaves[2], workload.Access{Reads: 1 << 35, Writes: 1<<35 + 5})
	pw := workload.New(objects, n)
	for x := 0; x < 150; x++ {
		pw.AddReads(x, leaves[x%len(leaves)], int64(x)<<8)
	}
	tw := pw.Clone()
	for x := 0; x < 5; x++ {
		tw.AddWrites(2*x, leaves[x], 1<<14+int64(x))
	}
	tw.AddReads(10, leaves[5], 1<<35)

	objs := make([]dynamic.ObjectState, objects)
	objs[0] = dynamic.ObjectState{Present: true, Copies: []tree.NodeID{leaves[0]},
		Counters: []dynamic.EdgeCounter{{Edge: 1, Count: 3}, {Edge: tree.EdgeID(ne - 2), Count: 200}}}
	objs[3] = dynamic.ObjectState{Present: true, Copies: []tree.NodeID{leaves[4], leaves[3]}, WriteStreak: 130}
	objs[objects-1] = dynamic.ObjectState{Present: true, Copies: []tree.NodeID{leaves[2]}}

	el, ml := seqLoads(ne, 1<<20), seqLoads(ne, 1<<7)
	el[0] = 1 << 40
	return withPrev(&State{
		Seq:                1 << 35,
		Tree:               tr,
		NumObjects:         objects,
		EpochRequests:      20000,
		Threshold:          8,
		DriftCheckRequests: 2500,
		Solved:             true,
		Served:             1 << 33,
		Epochs:             300,
		DriftEpochs:        12,
		DriftedTotal:       300 * 1000,
		AdoptMoved:         1 << 20,
		ResolveTimeNs:      1 << 36,
		EpochLog: []EpochRec{
			{Epoch: 1, Requests: 20000, Drifted: 900, Moved: 1 << 15, StaticCongestion: 17.5, MaxEdgeLoad: 1 << 22,
				ResolveNs: 1 << 25, Trigger: "cadence"},
			{Epoch: 2, Requests: 40000, Drifted: 1000, Moved: 3, StaticCongestion: 9, MaxEdgeLoad: 1 << 23,
				ResolveNs: 1 << 24, Trigger: "manual", DriftMagnitude: 1.5},
		},
		SolverW:  sw,
		TrackerW: tw,
		ShardStates: []ShardState{
			{EdgeLoad: el, MoveLoad: ml, Requests: 1 << 32, Cost: 1 << 34, Drift: []int{0, 2, objects - 2}},
			{EdgeLoad: seqLoads(ne, 2), MoveLoad: make([]int64, ne), Requests: 1 << 32, Cost: 5},
		},
		Objects: objs,
	}, pw)
}

// mkPendingState is mkState(3) cut while an epoch pass is in flight: its
// fold ran at 1400 requests and it adopts two calls after the cut.
func mkPendingState() *State {
	st := mkState(3)
	st.Pending = PendingPass{Calls: 2, Requests: 1400, Drifted: 3, Trigger: "drift", DriftMagnitude: 0.75}
	return st
}

// The v4 goldens pin the writer: Encode must reproduce them byte for
// byte, and they must decode and re-encode unchanged. The older goldens
// pin the reader. The v3 ones were written by the v3 writer, which had no
// pending-pass record: each decodes to the state it was encoded from and
// re-encodes as its v4 image. The v2 ones were written by the v2 writer:
// mkstate3.snap decodes and re-encodes as mkState(3)'s v4 image, and
// dense.snap, whose 150 last-fold cells stand above its 5 tracker cells
// (no cluster writes that), is corrupt.
func TestEncodeGolden(t *testing.T) {
	for _, tc := range []struct {
		file   string
		st     *State
		writer bool // the file is Encode's image of st
	}{
		{"mkstate3-v4.snap", mkState(3), true},
		{"dense-v4.snap", mkDenseState(), true},
		{"pending-v4.snap", mkPendingState(), true},
		{"mkstate3-v3.snap", mkState(3), false},
		{"dense-v3.snap", mkDenseState(), false},
		{"mkstate3.snap", mkState(3), false},
		{"dense.snap", nil, false},
	} {
		t.Run(tc.file, func(t *testing.T) {
			img := readGolden(t, tc.file)
			st, err := Decode(img)
			if tc.st == nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := Encode(tc.st)
			if tc.writer && !bytes.Equal(want, img) {
				t.Fatalf("Encode differs from the golden: %d vs %d bytes", len(want), len(img))
			}
			if !bytes.Equal(Encode(st), want) {
				t.Fatal("decoded golden does not re-encode as the v4 image of its state")
			}
		})
	}
}

// An Encoder's image is the golden at every worker count: 1 to 4 ranges
// (GOMAXPROCS raised so every count is real), twice each through one
// Encoder so the second image is written into fragments sized from the
// first, and the same bytes whether they are joined, measured or streamed
// to a writer.
func TestEncoderWorkerCountsMatchGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		file string
		st   *State
	}{
		{"mkstate3-v4.snap", mkState(3)},
		{"dense-v4.snap", mkDenseState()},
		{"pending-v4.snap", mkPendingState()},
	} {
		want := readGolden(t, tc.file)
		object := func(x int, _ *dynamic.ObjectState) *dynamic.ObjectState { return &tc.st.Objects[x] }
		for workers := 1; workers <= 4; workers++ {
			var e Encoder
			for pass := 0; pass < 2; pass++ {
				im := e.Encode(tc.st, workers, object)
				if got := im.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s, %d workers, pass %d: image differs from the golden (%d vs %d bytes)", tc.file, workers, pass, len(got), len(want))
				}
				var buf bytes.Buffer
				if n, err := im.WriteTo(&buf); err != nil || n != int64(len(want)) || im.Len() != len(want) || !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s, %d workers: WriteTo wrote %d bytes (err %v), Len %d; want the golden's %d", tc.file, workers, n, err, im.Len(), len(want))
				}
			}
		}
	}
}
