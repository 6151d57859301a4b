package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// encodePair serializes a (tree, workload) instance into the two fuzz
// inputs.
func encodePair(f *testing.F, t *tree.Tree, w *workload.W) {
	var tb, wb bytes.Buffer
	if err := tree.Encode(&tb, t); err != nil {
		f.Fatal(err)
	}
	if err := workload.Encode(&wb, w); err != nil {
		f.Fatal(err)
	}
	f.Add(tb.Bytes(), wb.Bytes())
}

// FuzzSolve hardens the whole pipeline entry point: for arbitrary
// (tree JSON, workload JSON) pairs, Solve must either reject the input
// with an error or succeed — never panic — and every success must satisfy
// the paper's checkable per-step invariants:
//
//   - E2 (Theorem 3.1 structure): each object's nibble copy set is a
//     connected subtree containing the gravity center, its per-edge loads
//     never exceed κ_x, and edges strictly inside the copy subtree carry
//     exactly κ_x;
//   - E4 (Lemma 4.1): the final placement is leaf-only;
//   - the certified lower bound never exceeds the achieved congestion
//     (ApproxRatio ≥ 1).
//
// The seed corpus is the topology zoo (via tree/encode.go) crossed with
// the frequency generators.
func FuzzSolve(f *testing.F) {
	rng := rand.New(rand.NewSource(71))
	zoo := []*tree.Tree{
		tree.Star(6, 8),
		tree.BalancedKAry(2, 3, 0),
		tree.Caterpillar(8, 2, 8, 8),
		tree.SCICluster(3, 4, 16, 8),
		tree.Random(rng, 25, 4, 0.4, 8),
	}
	for _, t := range zoo {
		encodePair(f, t, workload.Uniform(rng, t, 3, workload.DefaultGen))
		encodePair(f, t, workload.WriteOnly(rng, t, 2, workload.DefaultGen))
		encodePair(f, t, workload.New(1, t.Len())) // zero demand
	}
	// A deliberately invalid pair: demand on a bus (must error, not panic).
	bad := workload.New(1, zoo[0].Len())
	bad.Set(0, zoo[0].Buses()[0], workload.Access{Reads: 3})
	encodePair(f, zoo[0], bad)

	f.Fuzz(func(t *testing.T, treeJSON, wlJSON []byte) {
		if len(treeJSON) > 1<<15 || len(wlJSON) > 1<<15 {
			return
		}
		tr, err := tree.Decode(bytes.NewReader(treeJSON))
		if err != nil {
			return
		}
		w, err := workload.Decode(bytes.NewReader(wlJSON))
		if err != nil {
			return
		}
		// Size guard only — validity is Solve's job: invalid trees and
		// workloads must come back as errors, never as panics.
		if tr.Len() > 128 || w.NumObjects() > 32 || w.NumObjects()*tr.Len() > 1<<12 {
			return
		}
		res, err := Solve(tr, w, DefaultOptions())
		if err != nil {
			return
		}

		// E4: the final placement is leaf-only.
		if !res.Final.LeafOnly(tr) {
			t.Fatal("final placement has copies on inner nodes")
		}
		// The certified lower bound can never exceed what was achieved.
		if !res.LowerBound().LessEq(res.Report.Congestion) {
			t.Fatalf("lower bound %v exceeds achieved congestion %v", res.LowerBound(), res.Report.Congestion)
		}

		// E2 structure per object.
		for x := 0; x < w.NumObjects(); x++ {
			op := res.Nibble.Objects[x]
			if w.TotalWeight(x) == 0 {
				continue
			}
			if len(op.Copies) == 0 {
				t.Fatalf("object %d: demand but empty nibble copy set", x)
			}
			inSet := make(map[tree.NodeID]bool, len(op.Copies))
			for _, v := range op.Copies {
				inSet[v] = true
			}
			if !inSet[op.Gravity] {
				t.Fatalf("object %d: gravity %d not in copy set %v", x, op.Gravity, op.Copies)
			}
			// Connectivity: BFS inside the copy set from its first node.
			seen := map[tree.NodeID]bool{op.Copies[0]: true}
			queue := []tree.NodeID{op.Copies[0]}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, h := range tr.Adj(v) {
					if inSet[h.To] && !seen[h.To] {
						seen[h.To] = true
						queue = append(queue, h.To)
					}
				}
			}
			if len(seen) != len(inSet) {
				t.Fatalf("object %d: nibble copy set disconnected: %v", x, op.Copies)
			}
			// Load structure: ≤ κ_x everywhere, = κ_x strictly inside.
			kappa := w.Kappa(x)
			loads := placement.PerObjectEdgeLoads(tr, res.NibblePlacement(), x)
			for e, l := range loads {
				if l > kappa {
					t.Fatalf("object %d edge %d: nibble load %d > κ %d", x, e, l, kappa)
				}
				u, v := tr.Endpoints(tree.EdgeID(e))
				if inSet[u] && inSet[v] && l != kappa {
					t.Fatalf("object %d edge %d: inside-copy-set load %d != κ %d", x, e, l, kappa)
				}
			}
		}
	})
}
