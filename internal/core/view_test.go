package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// The Step-1 report is computed on first read, not maintained by the
// solver. The accessors of a Resolve result, and of a warm Solve result,
// must equal those of a fresh Solve on the same workload, including
// after an earlier result of the same solver had its accessors read (the
// next run must not serve the cached view of the previous one). They must
// also be the nearest-copy placement of the Step-1 copy sets and its exact
// loads.
func TestResultAccessorsMatchFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, inst := range zoo(rng) {
		for _, opts := range []Options{DefaultOptions(), {MappingRoot: tree.None, SkipDeletion: true}, {MappingRoot: tree.None, Parallelism: 2}} {
			s, err := NewSolver(inst.tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := workload.Zipf(rand.New(rand.NewSource(62)), inst.tr, 14, 1.1, workload.DefaultGen)
			got, err := s.Solve(w)
			if err != nil {
				t.Fatal(err)
			}
			mrng := rand.New(rand.NewSource(63))
			for round := 0; round < 5; round++ {
				want, err := Solve(inst.tr, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.NibblePlacement(), want.NibblePlacement()) ||
					!reflect.DeepEqual(got.NibbleReport(), want.NibbleReport()) ||
					!got.LowerBound().Eq(want.LowerBound()) || got.ApproxRatio() != want.ApproxRatio() {
					t.Fatalf("%s round %d: accessors differ from a fresh Solve", inst.name, round)
				}
				p, err := placement.NearestAssignment(inst.tr, w, want.Nibble.CopySets())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p, got.NibblePlacement()) || !reflect.DeepEqual(placement.Evaluate(inst.tr, p), got.NibbleReport()) {
					t.Fatalf("%s round %d: NibblePlacement/NibbleReport are not the Step-1 nearest assignment", inst.name, round)
				}
				if got.LowerBound().Less(got.NibbleReport().Congestion) || got.Report.Congestion.Less(got.LowerBound()) {
					t.Fatalf("%s round %d: lower bound %v outside [nibble %v, achieved %v]", inst.name, round,
						got.LowerBound(), got.NibbleReport().Congestion, got.Report.Congestion)
				}
				if round%2 == 0 {
					got, err = s.Resolve(mutate(mrng, inst.tr, w, 1+round))
				} else {
					mutate(mrng, inst.tr, w, 2)
					got, err = s.Solve(w)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// The Step-1 view is computed once however many goroutines read a Result
// at the same time, and they all see the same values.
func TestResultAccessorsConcurrentReads(t *testing.T) {
	tr := tree.SCICluster(4, 5, 16, 8)
	w := workload.Zipf(rand.New(rand.NewSource(64)), tr, 20, 1.1, workload.DefaultGen)
	res, err := Solve(tr, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	reps := make([]*placement.Report, readers)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = res.LowerBound()
			_ = res.NibblePlacement()
			reps[i] = res.NibbleReport()
		}()
	}
	wg.Wait()
	for _, rep := range reps {
		if rep != reps[0] {
			t.Fatal("concurrent readers got different Step-1 reports")
		}
	}
}
