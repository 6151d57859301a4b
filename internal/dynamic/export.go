package dynamic

import (
	"fmt"
	"slices"

	"hbn/internal/tree"
)

// EdgeCounter is one live read counter of an exported object: Count reads
// have crossed Edge towards the copy set since the object's last write.
type EdgeCounter struct {
	Edge  tree.EdgeID
	Count int32
}

// ObjectState is the serializable per-object state of a Strategy — the
// exact information a fresh strategy needs to serve the object
// bit-identically to the original from here on. Everything else the
// strategy keeps per object is derived from these fields on restore: the
// nearest-copy tables and the anchor from the copy list (see installTables:
// every table equals a rebuild from its list), and the write-broadcast
// edge set from the copy set.
type ObjectState struct {
	// Present marks an object that has been touched (materialized or
	// adopted). Absent objects carry nothing and materialize at their
	// first requester as usual.
	Present bool
	// Copies is the copy set in internal list order — the order breaks
	// ties between equidistant copies in the nearest tables, so it is
	// part of the reproducible state.
	Copies []tree.NodeID
	// Counters are the live read counters (generation-current, non-zero
	// entries only). Generations themselves are not state: only whether a
	// counter is current matters, so restore renumbers from 1.
	Counters []EdgeCounter
	// WriteStreak is the object's count of consecutive writes with no
	// intervening read — always strictly below the strategy's write budget
	// (reaching the budget contracts the set and resets the streak).
	WriteStreak uint32
}

// ExportObjectInto captures object x's serving state into st, reusing its
// slices: exporting object after object into one scratch state allocates
// only when a slice outgrows every earlier object's. The slices hold
// copies, valid until st is exported into again (export into a fresh
// state to keep one).
func (s *Strategy) ExportObjectInto(x int, st *ObjectState) {
	if x < 0 || x >= len(s.isCopy) {
		panic(fmt.Sprintf("dynamic: object %d out of range", x))
	}
	*st = ObjectState{Copies: st.Copies[:0], Counters: st.Counters[:0]}
	if len(s.copyList[x]) == 0 {
		return
	}
	st.Present = true
	st.Copies = append(st.Copies, s.copyList[x]...)
	if cw := s.readCW[x]; cw != nil {
		// One word per edge, so the counters come out in edge order and
		// equal strategies export identical states.
		gen := s.curGen[x]
		for e, w := range cw {
			if uint32(w>>32) == gen {
				if c := int32(uint32(w)); c != 0 {
					st.Counters = append(st.Counters, EdgeCounter{Edge: tree.EdgeID(e), Count: c})
				}
			}
		}
	}
	st.WriteStreak = s.wStreak[x]
}

// RestoreObject installs an exported object state into a fresh strategy
// (the object must not have been touched yet). It validates everything a
// checksum cannot — copy ranges and duplicates, counter edges and values
// below their budgets, a streak below the write budget — and returns an
// error rather than installing state that could panic or loop during
// serving; on error the object is left untouched. Restored serving is
// bit-identical to the original's: the copy list and live counters are
// exact, the nearest resolution is installed from the list by the routine
// AdoptCopySet uses (installTables), the broadcast edge set is rebuilt (it
// is a pure function of the copy set), and counter generations restart at
// 1 (only currency, not the number, is observable).
func (s *Strategy) RestoreObject(x int, st ObjectState) error {
	if x < 0 || x >= len(s.isCopy) {
		return fmt.Errorf("dynamic: restore: object %d out of range", x)
	}
	if !st.Present {
		if len(st.Copies) != 0 || len(st.Counters) != 0 || st.WriteStreak != 0 {
			return fmt.Errorf("dynamic: restore object %d: state without presence", x)
		}
		return nil
	}
	if s.isCopy[x] != nil {
		return fmt.Errorf("dynamic: restore object %d: already materialized", x)
	}
	n := s.t.Len()
	if len(st.Copies) == 0 {
		return fmt.Errorf("dynamic: restore object %d: present without copies", x)
	}
	ic := make([]bool, n)
	for _, v := range st.Copies {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("dynamic: restore object %d: copy node %d out of range", x, v)
		}
		if ic[v] {
			return fmt.Errorf("dynamic: restore object %d: duplicate copy %d", x, v)
		}
		ic[v] = true
	}
	ne := s.t.NumEdges()
	for _, ec := range st.Counters {
		if ec.Edge < 0 || int(ec.Edge) >= ne {
			return fmt.Errorf("dynamic: restore object %d: counter edge %d out of range", x, ec.Edge)
		}
		if ec.Count < 0 {
			return fmt.Errorf("dynamic: restore object %d: negative counter on edge %d", x, ec.Edge)
		}
		// Serving keeps every live counter strictly below its edge's budget
		// (reaching it replicates and resets to zero), so a saturated
		// counter can only come from a corrupt image or one captured under
		// different threshold options.
		if ec.Count >= s.edgeThresh[ec.Edge] {
			return fmt.Errorf("dynamic: restore object %d: counter %d on edge %d at or above its budget %d", x, ec.Count, ec.Edge, s.edgeThresh[ec.Edge])
		}
	}
	// The streak is reset the moment it reaches the budget (the set
	// contracts), so a live streak is always strictly below it.
	if st.WriteStreak >= s.wBudget {
		return fmt.Errorf("dynamic: restore object %d: write streak %d at or above the budget %d", x, st.WriteStreak, s.wBudget)
	}

	s.isCopy[x] = ic
	s.copyList[x] = slices.Clone(st.Copies)
	s.curGen[x] = 1
	s.installTables(x)
	for _, ec := range st.Counters {
		s.setReadCount(x, ec.Edge, ec.Count)
	}
	s.wStreak[x] = st.WriteStreak
	s.rebuildBroadcast(x)
	return nil
}

// Drifted returns the objects recorded since the previous drain (in
// first-touch order) without draining them: the drift trigger measures,
// and the snapshot cut encodes, the queue the next epoch pass will still
// consume. The slice is the tracker's own, not a copy: it is valid, and
// must not be modified, until the next RecordBatch, DrainDrifted or
// MarkDrifted.
func (ot *OfflineTracker) Drifted() []int {
	return ot.driftQ
}
