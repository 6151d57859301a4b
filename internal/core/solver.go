package core

import (
	"fmt"

	"hbn/internal/deletion"
	"hbn/internal/mapping"
	"hbn/internal/nibble"
	"hbn/internal/par"
	"hbn/internal/placement"
	"hbn/internal/ratio"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Solver is a reusable instance of the extended-nibble pipeline bound to
// one network. It owns every piece of per-stage scratch — nibble state,
// deletion buffers, nearest-assignment tallies, the mapping runner
// (orientation, level order, dense copy state, free-edge heap), per-object
// merge/validation scratch, two tracked evaluators, per-worker scratch
// arenas for per-object intermediates — and the record store: per-object
// exact-size slabs holding the live placement records (see objRecords).
// Solve and Resolve fill the store the same way, so a warm Solve, and a
// warm Resolve whose objects keep their sizes, allocate only a small
// constant, and Resolve recomputes only the objects a caller declares
// changed.
//
// Ownership contract: the *Result returned by Solve/Resolve (including
// every placement, report and trace hanging off it) is backed by solver
// storage and is INVALIDATED by the next Solve or Resolve call on the same
// solver. Callers that need a result beyond that must deep-copy it first.
// A Solver is not safe for concurrent use; its internal stages still shard
// over Options.Parallelism workers.
//
// Incremental contract (Resolve): after a successful Solve(w), the caller
// may mutate w's frequencies for some objects and call Resolve with the
// list of every object it touched. Steps 1–2 are per-object, so only the
// changed objects are re-nibbled, re-assigned and re-deleted; the global
// Step 3 re-runs on the refreshed modified placement (it is cheap —
// O(copies·log degree)), and the reports are refreshed through the tracked
// evaluators in O(touched·|V|) where touched = changed objects plus the
// mapped objects whose Step-3 output actually moved. The Result is
// bit-identical to a fresh Solve on the mutated workload. Objects mutated
// but omitted from the changed list yield undefined results; after an
// error the solver state is unspecified and the next call must be a full
// Solve.
type Solver struct {
	t    *tree.Tree
	opts Options

	// Per-worker scratch, grown to the resolved worker count on demand.
	// arenas hold one object's intermediates at a time: each per-object
	// step resets its worker's arena and compacts its outputs into the
	// record store.
	nibScr      []*nibble.Scratch
	delRun      []*deletion.Runner
	asgScr      []*placement.AssignScratch
	arenas      []*placement.Arena
	mergeByNode [][]*placement.Copy
	mergeCounts [][]int32
	valReads    [][]int64
	valWrites   [][]int64
	nodeScr     [][]tree.NodeID

	mapRun  *mapping.Runner
	nibEval *placement.Evaluator
	finEval *placement.Evaluator

	// Owned result storage, reused across runs.
	res    Result
	nibRes nibble.Result
	nibP   placement.P
	modP   placement.P
	finalP placement.P
	nibRep placement.Report
	finRep placement.Report

	// The record store: per object, the slab of its Steps 1–2 records
	// (nibP and modP point into it) and the slab of its final records
	// (finalP points into it).
	stepRecs  []objRecords
	finalRecs []objRecords
	leafOnly  []bool
	kappa     []int64 // per-object write contention, maintained by stageA
	perObj    []deletion.Stats
	errs      []error

	// Resolve bookkeeping. The mapping output alternates between two
	// arenas: Resolve compares the fresh Step-3 output against the
	// previous one to find the objects that actually moved, so the
	// previous run's records must survive while the new ones are built.
	w         *workload.W
	ready     bool
	external  bool // last solve used an externally computed nibble result
	mapped    *placement.P
	mapArena  [2]*placement.Arena
	mapFlip   int
	seen      []bool
	seenFinal []bool
	changed   []int
	changedF  []int
}

// NewSolver returns a Solver for t. The tree is validated once here; every
// workload is validated per call.
func NewSolver(t *tree.Tree, opts Options) (*Solver, error) {
	if err := t.ValidateHBN(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Solver{
		t:        t,
		opts:     opts,
		mapRun:   mapping.NewRunner(t, opts.MappingRoot),
		nibEval:  placement.NewEvaluator(t),
		finEval:  placement.NewEvaluator(t),
		mapArena: [2]*placement.Arena{{}, {}},
	}, nil
}

// Options returns the options the solver was built with.
func (s *Solver) Options() Options { return s.opts }

// ensure grows the per-worker scratch and the per-object storage to the
// current worker count and workload size. Warm calls with unchanged shapes
// do nothing.
func (s *Solver) ensure(workers, numObjects int) {
	n := s.t.Len()
	for len(s.nibScr) < workers {
		s.nibScr = append(s.nibScr, nibble.NewScratch(s.t))
		s.delRun = append(s.delRun, deletion.NewRunner(s.t))
		s.asgScr = append(s.asgScr, placement.NewAssignScratch(s.t))
		s.arenas = append(s.arenas, &placement.Arena{})
		s.mergeByNode = append(s.mergeByNode, make([]*placement.Copy, n))
		s.mergeCounts = append(s.mergeCounts, make([]int32, n))
		s.valReads = append(s.valReads, make([]int64, n))
		s.valWrites = append(s.valWrites, make([]int64, n))
		s.nodeScr = append(s.nodeScr, nil)
	}
	if cap(s.leafOnly) < numObjects {
		s.stepRecs = make([]objRecords, numObjects)
		s.finalRecs = make([]objRecords, numObjects)
		s.leafOnly = make([]bool, numObjects)
		s.kappa = make([]int64, numObjects)
		s.perObj = make([]deletion.Stats, numObjects)
		s.errs = make([]error, numObjects)
		s.seen = make([]bool, numObjects)
		s.seenFinal = make([]bool, numObjects)
		s.nibRes.Objects = make([]nibble.ObjectPlacement, numObjects)
		s.nibP.Copies = make([][]*placement.Copy, numObjects)
		s.modP.Copies = make([][]*placement.Copy, numObjects)
		s.finalP.Copies = make([][]*placement.Copy, numObjects)
	}
	s.stepRecs = s.stepRecs[:numObjects]
	s.finalRecs = s.finalRecs[:numObjects]
	s.leafOnly = s.leafOnly[:numObjects]
	s.kappa = s.kappa[:numObjects]
	s.perObj = s.perObj[:numObjects]
	s.errs = s.errs[:numObjects]
	s.seen = s.seen[:numObjects]
	s.seenFinal = s.seenFinal[:numObjects]
	s.nibRes.Objects = s.nibRes.Objects[:numObjects]
	s.nibP.Copies = s.nibP.Copies[:numObjects]
	s.modP.Copies = s.modP.Copies[:numObjects]
	s.finalP.Copies = s.finalP.Copies[:numObjects]
	s.nibP.NumObjects = numObjects
	s.modP.NumObjects = numObjects
	s.finalP.NumObjects = numObjects
}

// Solve runs the full pipeline on w, reusing all solver scratch. See the
// type comment for the result-ownership contract.
func (s *Solver) Solve(w *workload.W) (*Result, error) {
	return s.solve(w, nil)
}

// solve is the full pipeline; nib, when non-nil, is an externally computed
// Step-1 result (the distributed nibble machine's output).
func (s *Solver) solve(w *workload.W, nib *nibble.Result) (*Result, error) {
	if err := w.ValidateHBN(s.t); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.ready = false
	workers := par.Workers(s.opts.Parallelism)
	numObjects := w.NumObjects()
	s.ensure(workers, numObjects)
	s.w = w
	// external gates Resolve: an externally computed nibble result has no
	// per-object Step-1 state the solver could patch incrementally.
	// (stageA never writes external data into s.nibRes, so no clearing is
	// needed when switching back to internal solves.)
	s.external = nib != nil
	s.mapArena[0].Reset()
	s.mapArena[1].Reset()
	s.mapFlip = 1

	// Steps 1+2, fused per object: nibble placement, nearest-copy
	// assignment, deletion, leaf/inner partition.
	par.ForEach(workers, numObjects, func(wk, x int) {
		s.errs[x] = s.stageA(wk, x, nib)
	})
	for _, err := range s.errs {
		if err != nil {
			return nil, err
		}
	}

	res := &s.res
	*res = Result{}
	if nib != nil {
		res.Nibble = nib
	} else {
		res.Nibble = &s.nibRes
	}
	res.NibblePlacement = &s.nibP
	res.NibbleReport = s.nibEval.EvaluateTrackedInto(&s.nibRep, &s.nibP, workers)
	if s.opts.SkipDeletion {
		res.Modified = res.NibblePlacement
	} else {
		res.Modified = &s.modP
		res.DeletionStats = s.sumDeletionStats()
	}
	for x := 0; x < numObjects; x++ {
		if !s.leafOnly[x] {
			res.MappedObjects++
		}
	}

	// Step 3: mapping (global, sequential).
	s.mapped = nil
	if res.MappedObjects > 0 {
		mapped, trace, err := s.runMapping(s.mapArena[0])
		if err != nil {
			return nil, err
		}
		res.MappingTrace = trace
		s.mapped = mapped
	}

	// Per-object finish: merge (and optional nearest reassignment),
	// leaf-only check, validation.
	par.ForEach(workers, numObjects, func(wk, x int) {
		s.errs[x] = s.finishObject(wk, x)
	})
	for _, err := range s.errs {
		if err != nil {
			return nil, err
		}
	}
	res.Final = &s.finalP
	res.Report = s.finEval.EvaluateTrackedInto(&s.finRep, &s.finalP, workers)
	res.LowerBound = s.lowerBound(res.Nibble, res.NibbleReport)
	s.ready = true
	return res, nil
}

// Resolve re-solves after the listed objects' frequencies changed in the
// workload of the last Solve (duplicates are fine). See the type comment
// for the incremental contract; the result is bit-identical to a fresh
// Solve on the mutated workload.
func (s *Solver) Resolve(changed []int) (*Result, error) {
	if !s.ready {
		return nil, fmt.Errorf("core: Resolve without a preceding successful Solve")
	}
	if s.external {
		return nil, fmt.Errorf("core: Resolve after a solve with an externally computed nibble result; re-run Solve")
	}
	numObjects := s.w.NumObjects()
	workers := par.Workers(s.opts.Parallelism)
	s.ensure(workers, numObjects)

	// Validate before touching any state: a rejected call must leave the
	// solver exactly as it was (ready, no seen[] flags leaked). The
	// mutated rows must still satisfy the leaf-only model — the same check
	// a fresh Solve would apply, restricted to the changed objects.
	for _, x := range changed {
		if x < 0 || x >= numObjects {
			return nil, fmt.Errorf("core: Resolve: object %d out of range [0,%d)", x, numObjects)
		}
		if err := s.w.ValidateHBNObject(s.t, x); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	list := s.changed[:0]
	for _, x := range changed {
		if !s.seen[x] {
			s.seen[x] = true
			list = append(list, x)
		}
	}
	s.changed = list
	defer func() {
		for _, x := range list {
			s.seen[x] = false
		}
	}()
	res := &s.res
	if len(list) == 0 {
		return res, nil
	}
	s.ready = false
	prevMapped := s.mapped

	// Steps 1+2 for the changed objects only; every other object's
	// records stay untouched in its slab.
	par.ForEach(workers, len(list), func(wk, i int) {
		s.errs[i] = s.stageA(wk, list[i], nil)
	})
	for _, err := range s.errs[:len(list)] {
		if err != nil {
			return nil, err
		}
	}

	res.NibbleReport = s.nibEval.ReevaluateInto(&s.nibRep, &s.nibP, list, workers)
	res.DeletionStats = deletion.Stats{}
	if !s.opts.SkipDeletion {
		res.DeletionStats = s.sumDeletionStats()
	}
	res.MappedObjects = 0
	for x := 0; x < numObjects; x++ {
		if !s.leafOnly[x] {
			res.MappedObjects++
		}
	}

	// Step 3 re-runs globally (its budgets couple all mapped objects), then
	// the final refresh set is the changed objects plus every mapped object
	// whose Step-3 output actually moved.
	res.MappingTrace = nil
	s.mapped = nil
	if res.MappedObjects > 0 {
		a := s.mapArena[s.mapFlip]
		s.mapFlip ^= 1
		a.Reset()
		mapped, trace, err := s.runMapping(a)
		if err != nil {
			return nil, err
		}
		res.MappingTrace = trace
		s.mapped = mapped
	}
	cf := s.changedF[:0]
	for _, x := range list {
		s.seenFinal[x] = true
		cf = append(cf, x)
	}
	if s.mapped != nil && prevMapped != nil {
		for x := 0; x < numObjects; x++ {
			if s.seenFinal[x] || s.leafOnly[x] {
				continue
			}
			if !copyListsEqual(prevMapped.Copies[x], s.mapped.Copies[x]) {
				cf = append(cf, x)
			}
		}
	}
	s.changedF = cf
	for _, x := range list {
		s.seenFinal[x] = false
	}

	par.ForEach(workers, len(cf), func(wk, i int) {
		s.errs[i] = s.finishObject(wk, cf[i])
	})
	for _, err := range s.errs[:len(cf)] {
		if err != nil {
			return nil, err
		}
	}
	res.Report = s.finEval.ReevaluateInto(&s.finRep, &s.finalP, cf, workers)
	res.LowerBound = s.lowerBound(res.Nibble, res.NibbleReport)
	s.ready = true
	return res, nil
}

// stageA runs Steps 1+2 for one object: nibble placement (unless an
// external result was provided), nearest-copy assignment, deletion, and
// the leaf/inner partition flag. The intermediates live in the worker's
// arena; the assigned and modified copies are compacted into the object's
// slab.
func (s *Solver) stageA(wk, x int, nib *nibble.Result) error {
	a := s.arenas[wk]
	a.Reset()
	var op nibble.ObjectPlacement
	if nib != nil {
		op = nib.Objects[x]
	} else {
		op = nibble.PlaceObjectScratchInto(s.nibScr[wk], s.t, s.w, x, s.nibRes.Objects[x].Copies)
		s.nibRes.Objects[x] = op
	}
	s.kappa[x] = s.w.Kappa(x)
	copies, err := s.asgScr[wk].NearestObject(s.t, s.w, x, op.Copies, a)
	if err != nil {
		return fmt.Errorf("core: nibble placement: %w", err)
	}

	mod := copies
	r := &s.stepRecs[x]
	if s.opts.SkipDeletion {
		r.store(copies)
	} else {
		s.perObj[x] = deletion.Stats{}
		mod, err = s.delRun[wk].RunObject(s.w, x, op, copies, s.opts.SkipSplitting, a, &s.perObj[x])
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		r.store(copies, mod)
	}
	s.nibP.Copies[x] = r.section(0)
	s.modP.Copies[x] = r.section(1)
	leafOnly := true
	for _, c := range mod {
		if !s.t.IsLeaf(c.Node) {
			leafOnly = false
			break
		}
	}
	s.leafOnly[x] = leafOnly
	return nil
}

// lowerBound computes the certified lower bound on the optimum leaf-only
// congestion used by Theorem 4.3's proof: the nibble congestion (nibble
// loads are per-edge minima over ALL placements, leaf-only ones included),
// strengthened by min(κ_x̂, h_x̂/2) for the object x̂ of maximum write
// contention among objects with inner-node copies, the first in object
// order on ties (every optimal placement either replicates x̂ — paying
// κ_x̂ on a unit-bandwidth leaf switch — or routes at least half of x̂'s
// requests over one leaf switch). κ comes from s.kappa, which stageA keeps
// current for every object whose row changed, so only x̂'s row is scanned.
func (s *Solver) lowerBound(nib *nibble.Result, nibReport *placement.Report) ratio.R {
	lb := nibReport.Congestion
	best, bestKappa := -1, int64(-1)
	for x, k := range s.kappa {
		if k <= bestKappa {
			continue
		}
		for _, v := range nib.Objects[x].Copies {
			if !s.t.IsLeaf(v) {
				best, bestKappa = x, k
				break
			}
		}
	}
	if bestKappa > 0 {
		// min(κ, h/2) = min(2κ, h)/2, kept exact as a rational.
		lb = ratio.Max(lb, ratio.New(min(2*bestKappa, s.w.TotalWeight(best)), 2))
	}
	return lb
}

// runMapping is the shared Step-3 call of Solve and Resolve.
func (s *Solver) runMapping(a *placement.Arena) (*placement.P, *mapping.Trace, error) {
	mapped, trace, err := s.mapRun.Run(s.w, s.res.Modified, s.leafOnly, s.kappa, mapping.Options{
		Root:           s.opts.MappingRoot,
		CheckInvariant: s.opts.CheckInvariants,
		AllowOverload:  s.opts.SkipDeletion,
	}, a)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return mapped, trace, nil
}

// finishObject produces one object's final leaf placement: per-node merge
// of its (modified or mapped) copies, optional nearest reassignment, the
// leaf-only safety check and demand-coverage validation. The merged copies
// are built in the worker's arena and compacted into the object's slab.
func (s *Solver) finishObject(wk, x int) error {
	a := s.arenas[wk]
	a.Reset()
	cs := s.res.Modified.Copies[x]
	if !s.leafOnly[x] {
		cs = s.mapped.Copies[x]
	}
	merged := placement.MergeObject(x, cs, s.mergeByNode[wk], s.mergeCounts[wk], a)
	if s.opts.ReassignNearest && len(merged) > 0 {
		nodes := s.nodeScr[wk][:0]
		for _, c := range merged {
			nodes = append(nodes, c.Node)
		}
		s.nodeScr[wk] = nodes
		var err error
		merged, err = s.asgScr[wk].NearestObject(s.t, s.w, x, nodes, a)
		if err != nil {
			return fmt.Errorf("core: reassign: %w", err)
		}
	}
	for _, c := range merged {
		if !s.t.IsLeaf(c.Node) {
			return fmt.Errorf("core: internal error: final placement uses inner nodes")
		}
	}
	r := &s.finalRecs[x]
	r.store(merged)
	s.finalP.Copies[x] = r.section(0)
	if err := s.finalP.ValidateObject(s.t, s.w, x, s.valReads[wk], s.valWrites[wk]); err != nil {
		return fmt.Errorf("core: internal error: %w", err)
	}
	return nil
}

func (s *Solver) sumDeletionStats() deletion.Stats {
	var st deletion.Stats
	for x := range s.perObj {
		st.Deleted += s.perObj[x].Deleted
		st.Splits += s.perObj[x].Splits
		st.Kept += s.perObj[x].Kept
	}
	return st
}

// copyListsEqual reports whether two per-object copy lists are
// structurally identical (same nodes, objects and shares in order) — the
// test Resolve uses to detect which mapped objects Step 3 actually moved.
func copyListsEqual(a, b []*placement.Copy) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ca, cb := a[i], b[i]
		if ca.Node != cb.Node || ca.Object != cb.Object || len(ca.Shares) != len(cb.Shares) {
			return false
		}
		for j := range ca.Shares {
			if ca.Shares[j] != cb.Shares[j] {
				return false
			}
		}
	}
	return true
}
