// Package core implements the paper's primary contribution: the
// extended-nibble strategy (Section 3), a polynomial-time algorithm that
// computes a leaf-only placement of shared data objects on a hierarchical
// bus network whose congestion is at most 7 times optimal (Theorem 4.3).
//
// The pipeline runs the three steps in order:
//
//  1. nibble   — optimal placement allowing copies on inner nodes,
//  2. deletion — every copy ends up serving s(c) ∈ [κ_x, 2κ_x] requests,
//  3. mapping  — all copies are moved to leaves within load budgets.
//
// Objects whose copies already sit only on leaves after Step 2 are
// finalized untouched: the paper's τ_max ≤ 3·C_opt argument relies on the
// strategy "not changing the placement" of such objects, so they are
// excluded from Step 3 and τ_max is taken over the mapped objects only.
package core

import (
	"fmt"
	"sync"

	"hbn/internal/deletion"
	"hbn/internal/mapping"
	"hbn/internal/nibble"
	"hbn/internal/placement"
	"hbn/internal/ratio"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Options configure the pipeline; the zero value is the paper's algorithm.
type Options struct {
	// SkipDeletion bypasses Step 2 (ablation E10). Mapping then runs with
	// AllowOverload, because Lemma 4.1's guarantee needs Observation 3.2.
	SkipDeletion bool
	// SkipSplitting disables only the copy-splitting half of Step 2.
	SkipSplitting bool
	// ReassignNearest re-routes every request to its nearest final copy
	// after Step 3 (never increases any load; ablation E10 measures how
	// much it helps over the forwarding assignment the analysis bounds).
	ReassignNearest bool
	// MappingRoot overrides the (arbitrary) root of Step 3.
	MappingRoot tree.NodeID
	// CheckInvariants enables the O(|V|)-per-step Invariant 4.2 checker.
	CheckInvariants bool
	// Parallelism is the number of worker goroutines the per-object stages
	// (nibble placement, deletion, leaf/inner partition, load
	// accumulation, validation) shard over. <= 0 means GOMAXPROCS; 1 runs
	// fully sequentially; values above GOMAXPROCS are capped, since the
	// stages are CPU-bound and oversubscription only adds scheduling and
	// scratch overhead. Every stage writes per-object results into
	// pre-assigned slots and merges integer partials, so the output is
	// bit-identical for every parallelism degree. Step 3 (mapping) shares
	// load budgets across objects and always runs sequentially.
	Parallelism int
}

// DefaultOptions returns the paper's algorithm with an automatic mapping
// root and GOMAXPROCS parallelism.
func DefaultOptions() Options {
	return Options{MappingRoot: tree.None}
}

// Result carries every intermediate product, so the experiment harness can
// verify the per-step claims. The serving path reads Final and Report
// only, so the Step-1 report (NibblePlacement, NibbleReport, LowerBound)
// is not maintained by the solver: it is computed on first read, from the
// run's workload and κ, and is the same as if every run had computed it.
type Result struct {
	// Nibble is the Step 1 output (copy sets may include buses).
	Nibble *nibble.Result
	// Modified is the Step 2 output (the Step 1 placement with
	// nearest-copy assignment when Options.SkipDeletion is set).
	Modified      *placement.P
	DeletionStats deletion.Stats
	// MappingTrace describes the Step 3 run (nil if no object needed
	// mapping).
	MappingTrace *mapping.Trace
	// Final is the leaf-only placement (merged per node), and Report its
	// exact loads.
	Final  *placement.P
	Report *placement.Report
	// MappedObjects counts objects that went through Step 3.
	MappedObjects int

	view *nibbleView
}

// nibbleView is the Step-1 report of a Result, computed on first read
// from the tree, workload and κ of the run that produced the Result. It
// follows the Result's ownership: a Solver resets it on its next run.
type nibbleView struct {
	once  sync.Once
	t     *tree.Tree
	w     *workload.W
	kappa []int64
	p     *placement.P
	rep   *placement.Report
	lb    ratio.R
}

// get computes the view for the Step-1 output nib on the first call.
func (v *nibbleView) get(nib *nibble.Result) *nibbleView {
	v.once.Do(func() {
		p, err := placement.NearestAssignment(v.t, v.w, nib.CopySets())
		if err != nil {
			// The run assigned these copy sets already.
			panic(fmt.Sprintf("core: internal error: %v", err))
		}
		v.p = p
		v.rep = placement.Evaluate(v.t, p)
		v.lb = lowerBound(v.t, v.w, v.kappa, nib, v.rep)
	})
	return v
}

// NibblePlacement returns the Step 1 placement with nearest-copy
// assignment. The first call computes it (see Result).
func (r *Result) NibblePlacement() *placement.P { return r.view.get(r.Nibble).p }

// NibbleReport returns the loads of NibblePlacement; its congestion is a
// lower bound on the optimum of the leaf-only problem. The first call
// computes it (see Result).
func (r *Result) NibbleReport() *placement.Report { return r.view.get(r.Nibble).rep }

// LowerBound returns a certified lower bound on C_opt:
// max(nibble congestion, min(κ_x̂, h_x̂/2)) where x̂ is the object with
// maximum write contention among objects the nibble placement put on
// inner nodes (Theorem 4.3's case analysis). The first call computes it
// (see Result).
func (r *Result) LowerBound() ratio.R { return r.view.get(r.Nibble).lb }

// lowerBound computes the certified lower bound on the optimum leaf-only
// congestion used by Theorem 4.3's proof: the nibble congestion (nibble
// loads are per-edge minima over ALL placements, leaf-only ones included),
// strengthened by min(κ_x̂, h_x̂/2) for the object x̂ of maximum write
// contention among objects with inner-node copies, the first in object
// order on ties (every optimal placement either replicates x̂ — paying
// κ_x̂ on a unit-bandwidth leaf switch — or routes at least half of x̂'s
// requests over one leaf switch). κ comes from the run's per-object
// write contention, so only x̂'s row is scanned.
func lowerBound(t *tree.Tree, w *workload.W, kappa []int64, nib *nibble.Result, nibReport *placement.Report) ratio.R {
	lb := nibReport.Congestion
	best, bestKappa := -1, int64(-1)
	for x, k := range kappa {
		if k <= bestKappa {
			continue
		}
		for _, v := range nib.Objects[x].Copies {
			if !t.IsLeaf(v) {
				best, bestKappa = x, k
				break
			}
		}
	}
	if bestKappa > 0 {
		// min(κ, h/2) = min(2κ, h)/2, kept exact as a rational.
		lb = ratio.Max(lb, ratio.New(min(2*bestKappa, w.TotalWeight(best)), 2))
	}
	return lb
}

// ApproxRatio returns congestion/LowerBound as a float (≥ 1; Theorem 4.3
// guarantees the true ratio against C_opt is ≤ 7).
func (r *Result) ApproxRatio() float64 {
	lb := r.LowerBound().Float()
	if lb == 0 {
		if r.Report.Congestion.Num == 0 {
			return 1
		}
		return 0 // no meaningful bound: only happens for zero-demand inputs
	}
	return r.Report.Congestion.Float() / lb
}

// Solve runs the extended-nibble strategy on a hierarchical bus network.
// The tree must satisfy ValidateHBN and the workload must be leaf-only.
// It is the one-shot convenience entry point: a fresh Solver runs the
// pipeline once and is discarded. Callers solving repeatedly (or
// incrementally) hold a Solver instead, whose warm runs reuse all scratch.
func Solve(t *tree.Tree, w *workload.W, opts Options) (*Result, error) {
	return SolveFromNibble(t, w, nil, opts)
}

// SolveFromNibble is Solve with a precomputed Step-1 result (for example
// the one the distributed tree machine produced); nib == nil computes it
// sequentially. The worker-count clamp lives in par.Workers (values above
// GOMAXPROCS are capped there, the single source of truth).
func SolveFromNibble(t *tree.Tree, w *workload.W, nib *nibble.Result, opts Options) (*Result, error) {
	s, err := NewSolver(t, opts)
	if err != nil {
		return nil, err
	}
	return s.solve(w, nib)
}
