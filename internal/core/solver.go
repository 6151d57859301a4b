package core

import (
	"fmt"

	"hbn/internal/deletion"
	"hbn/internal/mapping"
	"hbn/internal/nibble"
	"hbn/internal/par"
	"hbn/internal/placement"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Solver is a reusable instance of the extended-nibble pipeline bound to
// one network. It owns every piece of per-stage scratch — row supports,
// nibble state, deletion buffers, nearest-assignment tallies, the mapping
// runner (orientation, level order, dense copy state, free-edge heap),
// per-object merge/validation scratch, the tracked evaluator of the final
// placement, per-worker scratch arenas for per-object intermediates — and
// the record store: per-object exact-size slabs holding the live
// placement records (see objRecords).
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
// changed objects are re-nibbled, re-assigned and re-deleted, each at a
// cost that follows the closure of its support (its requesting nodes and
// their ancestors) rather than |V|; the global Step 3 re-runs on the
// refreshed modified placement (it is cheap — O(copies·log degree)), and
// the final report is refreshed through the tracked evaluator for the
// touched objects: the changed ones plus the mapped objects whose Step-3
// output actually moved. The Step-1 report is not maintained at all; the
// Result computes it when first asked (see Result.NibbleReport). The
// Result is bit-identical to a fresh Solve on the mutated workload.
// Objects mutated but omitted from the changed list yield undefined
// results; after an error the solver state is unspecified and the next
// call must be a full Solve.
type Solver struct {
	t    *tree.Tree
	opts Options

	// Per-worker scratch, grown to the resolved worker count on demand.
	// arenas hold one object's intermediates at a time: each per-object
	// step resets its worker's arena and compacts its outputs into the
	// record store; sups hold the row support of the worker's object.
	sups        []workload.Support
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
	finEval *placement.Evaluator

	// Owned result storage, reused across runs.
	res    Result
	view   nibbleView
	nibRes nibble.Result
	modP   placement.P
	finalP placement.P
	finRep placement.Report

	// The record store: per object, the slab of its Steps 1–2 records
	// (modP points into it) and the slab of its final records (finalP
	// points into it).
	stepRecs  []objRecords
	finalRecs []objRecords
	leafOnly  []bool
	kappa     []int64 // per-object write contention, maintained by stageA
	support   []int32 // per-object support size, maintained by stageA
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

	// The re-solve in progress (see BeginResolve): the stage Step runs
	// next, how many of that stage's objects are done, and the Step-3
	// output of the last run, which the new one is compared against.
	stage      Stage
	stageDone  int
	prevMapped *placement.P
}

// Stage is one stage of an incremental re-solve, in the order Step runs
// them. The per-object stages advance over their objects in ranges; the
// global ones run whole.
type Stage int

const (
	// StageObjects is Steps 1–2 of each changed object, in the order of
	// the deduplicated change list.
	StageObjects Stage = iota
	// StageMapping is the global Step 3, then the choice of the objects
	// whose final placement is refreshed: the changed ones and the mapped
	// ones whose Step-3 output moved.
	StageMapping
	// StageFinish is the per-object finish of each refreshed object.
	StageFinish
	// StageReport re-evaluates the final placement's loads for the
	// refreshed objects.
	StageReport
	// StageDone means no re-solve is in progress.
	StageDone
)

var stageNames = [...]string{"steps 1-2", "step 3", "finish", "re-evaluation", "done"}

func (st Stage) String() string { return stageNames[st] }

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
		finEval:  placement.NewEvaluator(t),
		mapArena: [2]*placement.Arena{{}, {}},
		stage:    StageDone,
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
		s.sups = append(s.sups, workload.Support{})
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
		s.support = make([]int32, numObjects)
		s.perObj = make([]deletion.Stats, numObjects)
		s.errs = make([]error, numObjects)
		s.seen = make([]bool, numObjects)
		s.seenFinal = make([]bool, numObjects)
		s.nibRes.Objects = make([]nibble.ObjectPlacement, numObjects)
		s.modP.Copies = make([][]*placement.Copy, numObjects)
		s.finalP.Copies = make([][]*placement.Copy, numObjects)
	}
	s.stepRecs = s.stepRecs[:numObjects]
	s.finalRecs = s.finalRecs[:numObjects]
	s.leafOnly = s.leafOnly[:numObjects]
	s.kappa = s.kappa[:numObjects]
	s.support = s.support[:numObjects]
	s.perObj = s.perObj[:numObjects]
	s.errs = s.errs[:numObjects]
	s.seen = s.seen[:numObjects]
	s.seenFinal = s.seenFinal[:numObjects]
	s.nibRes.Objects = s.nibRes.Objects[:numObjects]
	s.modP.Copies = s.modP.Copies[:numObjects]
	s.finalP.Copies = s.finalP.Copies[:numObjects]
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
	s.stage = StageDone // a re-solve in progress is abandoned
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
	res.Modified = &s.modP
	if !s.opts.SkipDeletion {
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
	s.attachView(res)
	s.ready = true
	return res, nil
}

// Resolve re-solves after the listed objects' frequencies changed in the
// workload of the last Solve (duplicates are fine). See the type comment
// for the incremental contract; the result is bit-identical to a fresh
// Solve on the mutated workload. It is BeginResolve, then Step until the
// re-solve completes, one whole stage at a time.
func (s *Solver) Resolve(changed []int) (*Result, error) {
	if err := s.BeginResolve(changed); err != nil {
		return nil, err
	}
	for {
		_, left := s.Stage()
		if res, err := s.Step(left); res != nil || err != nil {
			return res, err
		}
	}
}

// BeginResolve starts the incremental re-solve Resolve runs, for the
// listed objects (duplicates are fine), and leaves its stages to Step, so
// a caller can spread them over time: the solver's storage and the
// workload must not change until Step returns the result, and a Solve
// abandons the re-solve. It validates the list first: a rejected call
// leaves the solver exactly as it was. An empty list starts nothing, and
// Step then returns the last result.
func (s *Solver) BeginResolve(changed []int) error {
	if s.stage != StageDone {
		return fmt.Errorf("core: BeginResolve while a re-solve is in progress")
	}
	if !s.ready {
		return fmt.Errorf("core: Resolve without a preceding successful Solve")
	}
	if s.external {
		return fmt.Errorf("core: Resolve after a solve with an externally computed nibble result; re-run Solve")
	}
	numObjects := s.w.NumObjects()
	s.ensure(par.Workers(s.opts.Parallelism), numObjects)

	// Validate before touching any state: a rejected call must leave the
	// solver exactly as it was (ready, no seen[] flags leaked). The
	// mutated rows must still satisfy the leaf-only model — the same check
	// a fresh Solve would apply, restricted to the changed objects.
	for _, x := range changed {
		if x < 0 || x >= numObjects {
			return fmt.Errorf("core: Resolve: object %d out of range [0,%d)", x, numObjects)
		}
		if err := s.w.ValidateHBNObject(s.t, x); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	list := s.changed[:0]
	for _, x := range changed {
		if !s.seen[x] {
			s.seen[x] = true
			list = append(list, x)
		}
	}
	for _, x := range list {
		s.seen[x] = false
	}
	s.changed = list
	if len(list) == 0 {
		return nil
	}
	s.ready = false
	s.prevMapped = s.mapped
	s.stage, s.stageDone = StageObjects, 0
	return nil
}

// Stage returns the stage the re-solve in progress runs next and how much
// of it is left: objects for a per-object stage, 1 for a global one, and
// 0 with StageDone when none is in progress.
func (s *Solver) Stage() (Stage, int) {
	switch s.stage {
	case StageObjects:
		return s.stage, len(s.changed) - s.stageDone
	case StageFinish:
		return s.stage, len(s.changedF) - s.stageDone
	case StageDone:
		return s.stage, 0
	}
	return s.stage, 1
}

// Step runs the next piece of the re-solve in progress: at most n (at
// least 1) objects of a per-object stage, or the whole of a global stage,
// and never past the end of the stage. It returns the result once the
// re-solve is complete, and at once when none is in progress and the
// last solve succeeded; nil before. The objects of a per-object stage are
// independent, so where Step cuts a stage does not change the result.
// After an error the solver state is unspecified, as after a failed
// Resolve, and the next call must be a full Solve.
func (s *Solver) Step(n int) (*Result, error) {
	workers := par.Workers(s.opts.Parallelism)
	res := &s.res
	switch s.stage {
	case StageObjects:
		// Steps 1+2 for the changed objects only; every other object's
		// records stay untouched in its slab.
		lo, list := s.stageDone, s.changed
		hi := lo + max(1, min(n, len(list)-lo))
		par.ForEach(workers, hi-lo, func(wk, i int) {
			s.errs[i] = s.stageA(wk, list[lo+i], nil)
		})
		for _, err := range s.errs[:hi-lo] {
			if err != nil {
				return s.fail(err)
			}
		}
		s.stageDone = hi
		if hi == len(list) {
			s.stage, s.stageDone = StageMapping, 0
		}
	case StageMapping:
		if err := s.remap(); err != nil {
			return s.fail(err)
		}
		s.stage = StageFinish
	case StageFinish:
		lo, cf := s.stageDone, s.changedF
		hi := lo + max(1, min(n, len(cf)-lo))
		par.ForEach(workers, hi-lo, func(wk, i int) {
			s.errs[i] = s.finishObject(wk, cf[lo+i])
		})
		for _, err := range s.errs[:hi-lo] {
			if err != nil {
				return s.fail(err)
			}
		}
		s.stageDone = hi
		if hi == len(cf) {
			s.stage, s.stageDone = StageReport, 0
		}
	case StageReport:
		res.Report = s.finEval.ReevaluateInto(&s.finRep, &s.finalP, s.changedF, workers)
		s.attachView(res)
		s.ready = true
		s.stage, s.prevMapped = StageDone, nil
		return res, nil
	case StageDone:
		if !s.ready {
			return nil, fmt.Errorf("core: Resolve without a preceding successful Solve")
		}
		return res, nil
	}
	return nil, nil
}

// fail ends the re-solve in progress with err.
func (s *Solver) fail(err error) (*Result, error) {
	s.stage, s.prevMapped = StageDone, nil
	return nil, err
}

// remap is the re-solve's global stage: the deletion totals and the
// mapped-object count, then Step 3, which re-runs globally because its
// budgets couple all mapped objects, and the final refresh set: the
// changed objects plus every mapped object whose Step-3 output actually
// moved.
func (s *Solver) remap() error {
	res := &s.res
	numObjects := s.w.NumObjects()
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
	res.MappingTrace = nil
	s.mapped = nil
	if res.MappedObjects > 0 {
		a := s.mapArena[s.mapFlip]
		s.mapFlip ^= 1
		a.Reset()
		mapped, trace, err := s.runMapping(a)
		if err != nil {
			return err
		}
		res.MappingTrace = trace
		s.mapped = mapped
	}
	cf := s.changedF[:0]
	for _, x := range s.changed {
		s.seenFinal[x] = true
		cf = append(cf, x)
	}
	if prev := s.prevMapped; s.mapped != nil && prev != nil {
		for x := 0; x < numObjects; x++ {
			if s.seenFinal[x] || s.leafOnly[x] {
				continue
			}
			if !copyListsEqual(prev.Copies[x], s.mapped.Copies[x]) {
				cf = append(cf, x)
			}
		}
	}
	s.changedF = cf
	for _, x := range s.changed {
		s.seenFinal[x] = false
	}
	return nil
}

// stageA runs Steps 1+2 for one object: one scan of its row yields the
// support (the nodes with demand), κ and the total; then nibble placement
// (unless an external result was provided), nearest-copy assignment,
// deletion, and the leaf/inner partition flag, each on the closure of the
// support. The intermediates live in the worker's arena; the modified
// copies are compacted into the object's slab.
func (s *Solver) stageA(wk, x int, nib *nibble.Result) error {
	a := s.arenas[wk]
	a.Reset()
	sup := &s.sups[wk]
	s.w.SupportInto(x, sup)
	s.kappa[x] = sup.Kappa
	s.support[x] = int32(len(sup.Nodes))
	var op nibble.ObjectPlacement
	if nib != nil {
		op = nib.Objects[x]
	} else {
		op = nibble.PlaceSupportInto(s.nibScr[wk], s.t, sup, s.nibRes.Objects[x].Copies)
		s.nibRes.Objects[x] = op
	}
	mod, err := s.asgScr[wk].NearestObject(s.t, x, sup, op.Copies, a)
	if err != nil {
		return fmt.Errorf("core: nibble placement: %w", err)
	}
	if !s.opts.SkipDeletion {
		s.perObj[x] = deletion.Stats{}
		mod, err = s.delRun[wk].RunObject(x, op, sup.Kappa, mod, s.opts.SkipSplitting, a, &s.perObj[x])
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	r := &s.stepRecs[x]
	r.store(mod)
	s.modP.Copies[x] = r.list()
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

// attachView points res at a fresh Step-1 view of the run that produced
// it (see nibbleView).
func (s *Solver) attachView(res *Result) {
	s.view = nibbleView{t: s.t, w: s.w, kappa: s.kappa}
	res.view = &s.view
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
		sup := &s.sups[wk]
		s.w.SupportInto(x, sup)
		var err error
		merged, err = s.asgScr[wk].NearestObject(s.t, x, sup, nodes, a)
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
	s.finalP.Copies[x] = r.list()
	if err := s.finalP.ValidateObject(s.t, s.w, x, int(s.support[x]), s.valReads[wk], s.valWrites[wk]); err != nil {
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
