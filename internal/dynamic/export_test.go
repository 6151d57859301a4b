package dynamic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Export → restore into a fresh strategy is behavior-preserving: both
// strategies serve an identical suffix with identical per-request costs,
// loads and copy sets. The prefix mixes threshold dynamics (replication,
// write contraction) with adopted placements so all three object modes —
// untouched, anchored, table-backed — are in the exported set, and the
// restored strategy derives the same mode from each copy list.
func TestExportRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rng, tr, objects, 4000, 3, 1.0, 0.08)

	s := MustNew(tr, objects, Options{Threshold: 3})
	for _, r := range trace[:3000] {
		s.Serve(r)
	}
	// Adopt multi-copy sets for a few objects to force table-backed mode.
	leaves := tr.Leaves()
	for x := 0; x < 6; x++ {
		s.AdoptCopySet(x, []tree.NodeID{leaves[x%len(leaves)], leaves[(x+3)%len(leaves)]})
	}

	r := MustNew(tr, objects, Options{Threshold: 3})
	r.ImportLoads(append([]int64(nil), s.EdgeLoad...), s.MoveLoad(), s.Requests())
	modes := map[string]int{}
	for x := 0; x < objects; x++ {
		var st ObjectState
		s.ExportObjectInto(x, &st)
		switch {
		case !st.Present:
			modes["absent"]++
		case s.tableValid[x]:
			modes["table"]++
		default:
			modes["anchored"]++
		}
		if err := r.RestoreObject(x, st); err != nil {
			t.Fatalf("restore object %d: %v", x, err)
		}
		if st.Present && r.tableValid[x] != s.tableValid[x] {
			t.Fatalf("object %d: restored table mode %v, exported %v", x, r.tableValid[x], s.tableValid[x])
		}
	}
	if modes["table"] == 0 || modes["anchored"] == 0 {
		t.Fatalf("prefix did not exercise all modes: %v", modes)
	}

	for x := 0; x < objects; x++ {
		if got, want := r.Copies(x), s.Copies(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("object %d copies differ after restore: %v vs %v", x, got, want)
		}
	}
	for i, rq := range trace[3000:] {
		if got, want := r.Serve(rq), s.Serve(rq); got != want {
			t.Fatalf("suffix request %d: cost %d vs %d", i, got, want)
		}
	}
	if !reflect.DeepEqual(r.EdgeLoad, s.EdgeLoad) {
		t.Fatalf("edge loads diverged after suffix")
	}
	if !reflect.DeepEqual(r.MoveLoad(), s.MoveLoad()) {
		t.Fatalf("movement accounts diverged after suffix")
	}
	for x := 0; x < objects; x++ {
		if !reflect.DeepEqual(r.Copies(x), s.Copies(x)) {
			t.Fatalf("object %d copies diverged after suffix", x)
		}
	}
}

// RestoreObject validates everything a checksum cannot and must reject —
// with an error, never a panic — state that would corrupt serving.
func TestRestoreObjectRejects(t *testing.T) {
	tr := tree.Star(6, 8) // root bus + 6 leaves: all leaves share the root parent
	leaves := tr.Leaves()
	n := tr.Len()
	fresh := func() *Strategy { return MustNew(tr, 4, Options{Threshold: 2}) }

	cases := []struct {
		name string
		st   ObjectState
		want string
	}{
		{"state without presence", ObjectState{Copies: []tree.NodeID{leaves[0]}}, "without presence"},
		{"present without copies", ObjectState{Present: true}, "without copies"},
		{"copy out of range", ObjectState{Present: true, Copies: []tree.NodeID{tree.NodeID(n)}}, "out of range"},
		{"negative copy", ObjectState{Present: true, Copies: []tree.NodeID{-1}}, "out of range"},
		{"duplicate copy", ObjectState{Present: true, Copies: []tree.NodeID{leaves[0], leaves[0]}}, "duplicate"},
		{"counter edge range", ObjectState{Present: true, Copies: []tree.NodeID{leaves[0]}, Counters: []EdgeCounter{{Edge: tree.EdgeID(tr.NumEdges()), Count: 1}}}, "out of range"},
		{"negative counter", ObjectState{Present: true, Copies: []tree.NodeID{leaves[0]}, Counters: []EdgeCounter{{Edge: 0, Count: -1}}}, "negative counter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := fresh()
			err := s.RestoreObject(0, tc.st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
			// The object must be untouched after a rejected restore.
			if len(s.Copies(0)) != 0 {
				t.Fatalf("rejected restore left state behind")
			}
		})
	}

	t.Run("already materialized", func(t *testing.T) {
		s := fresh()
		s.Serve(Request{Object: 0, Node: leaves[0]})
		err := s.RestoreObject(0, ObjectState{Present: true, Copies: []tree.NodeID{leaves[0]}})
		if err == nil || !strings.Contains(err.Error(), "already materialized") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("object out of range", func(t *testing.T) {
		if err := fresh().RestoreObject(99, ObjectState{}); err == nil {
			t.Fatal("no error for out-of-range object")
		}
	})
	t.Run("absent state is a no-op", func(t *testing.T) {
		s := fresh()
		if err := s.RestoreObject(0, ObjectState{}); err != nil {
			t.Fatal(err)
		}
		s.Serve(Request{Object: 0, Node: leaves[0]}) // still materializes normally
		if len(s.Copies(0)) == 0 {
			t.Fatal("object did not materialize after absent restore")
		}
	})
}
