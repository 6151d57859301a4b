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
// bit-identically to the original from here on. The nearest tables are
// path-dependent (rebuilt from scratch at adoption, then incrementally
// relaxed with a strictly-closer rule, so ties remember history) and must
// travel verbatim; the write-broadcast edge set is a pure function of the
// copy set and is rebuilt on restore instead.
type ObjectState struct {
	// Present marks an object that has been touched (materialized or
	// adopted). Absent objects carry nothing and materialize at their
	// first requester as usual.
	Present bool
	// Copies is the copy set in internal list order — the order seeds the
	// multi-source BFS tie-breaking of any later table rebuild, so it is
	// part of the reproducible state.
	Copies []tree.NodeID
	// TableValid selects the nearest-resolution mode: true for adopted
	// multi-copy sets answered from the tables below, false for connected
	// request-driven sets answered via AnchorTop.
	TableValid bool
	AnchorTop  tree.NodeID
	Nearest    []tree.NodeID
	NDist      []int32
	// Counters are the live read counters (generation-current, non-zero
	// entries only). Generations themselves are not state: only whether a
	// counter is current matters, so restore renumbers from 1.
	Counters []EdgeCounter
	// WriteStreak is the object's count of consecutive writes with no
	// intervening read — always strictly below the strategy's write budget
	// (reaching the budget contracts the set and resets the streak).
	WriteStreak uint32
}

// ExportObject captures object x's serving state. The returned slices are
// fresh copies, safe to retain across further serving.
func (s *Strategy) ExportObject(x int) ObjectState {
	var st ObjectState
	s.ExportObjectInto(x, &st)
	return st
}

// ExportObjectInto captures object x's serving state into st, reusing its
// slices: exporting object after object into one scratch state allocates
// only when a slice outgrows every earlier object's. The slices hold
// copies, valid until st is exported into again.
func (s *Strategy) ExportObjectInto(x int, st *ObjectState) {
	if x < 0 || x >= len(s.isCopy) {
		panic(fmt.Sprintf("dynamic: object %d out of range", x))
	}
	*st = ObjectState{Copies: st.Copies[:0], Nearest: st.Nearest[:0], NDist: st.NDist[:0], Counters: st.Counters[:0]}
	if len(s.copyList[x]) == 0 {
		return
	}
	st.Present = true
	st.Copies = append(st.Copies, s.copyList[x]...)
	st.TableValid = s.tableValid[x]
	if st.TableValid {
		st.Nearest = append(st.Nearest, s.nearest[x]...)
		st.NDist = append(st.NDist, s.ndist[x]...)
	} else {
		st.AnchorTop = s.anchorTop[x]
	}
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
// checksum cannot — ranges, duplicate copies, the connected-subtree
// invariant of table-free sets, table shapes — and returns an error
// rather than installing state that could panic or loop during serving;
// on error the object is left untouched. Restored serving is
// bit-identical to the original's: the copy list order, tables and live
// counters are exact, the broadcast edge set is rebuilt (it is a pure
// function of the copy set), and counter generations restart at 1 (only
// currency, not the number, is observable).
func (s *Strategy) RestoreObject(x int, st ObjectState) error {
	if x < 0 || x >= len(s.isCopy) {
		return fmt.Errorf("dynamic: restore: object %d out of range", x)
	}
	if !st.Present {
		if len(st.Copies) != 0 || len(st.Counters) != 0 || st.TableValid || st.WriteStreak != 0 {
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
	if st.TableValid {
		if len(st.Copies) < 2 {
			return fmt.Errorf("dynamic: restore object %d: nearest table with %d copies", x, len(st.Copies))
		}
		if len(st.Nearest) != n || len(st.NDist) != n {
			return fmt.Errorf("dynamic: restore object %d: table shape %d/%d, want %d", x, len(st.Nearest), len(st.NDist), n)
		}
		for v := 0; v < n; v++ {
			nv := st.Nearest[v]
			if nv < 0 || int(nv) >= n || !ic[nv] {
				return fmt.Errorf("dynamic: restore object %d: nearest[%d]=%d is not a copy", x, v, nv)
			}
			if st.NDist[v] < 0 {
				return fmt.Errorf("dynamic: restore object %d: negative distance at node %d", x, v)
			}
		}
	} else {
		top := st.AnchorTop
		if top < 0 || int(top) >= n || !ic[top] {
			return fmt.Errorf("dynamic: restore object %d: anchor %d is not a copy", x, top)
		}
		// Table-free resolution requires the connected-subtree invariant:
		// the set must be exactly a subtree hanging below the anchor, i.e.
		// every non-anchor copy's parent is a copy too. Serving an
		// unanchored set would walk off the structure, so reject it here.
		for _, v := range st.Copies {
			if v == top {
				continue
			}
			p := s.r.Parent[v]
			if p == tree.None || !ic[p] {
				return fmt.Errorf("dynamic: restore object %d: copy set disconnected at node %d", x, v)
			}
		}
		if len(st.Nearest) != 0 || len(st.NDist) != 0 {
			return fmt.Errorf("dynamic: restore object %d: tables on a table-free object", x)
		}
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
	if st.TableValid {
		s.nearest[x] = slices.Clone(st.Nearest)
		s.ndist[x] = slices.Clone(st.NDist)
		s.tableValid[x] = true
	} else {
		s.tableValid[x] = false
		s.anchorTop[x] = st.AnchorTop
	}
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
