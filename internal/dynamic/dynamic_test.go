package dynamic

import (
	"math/rand"
	"testing"

	"hbn/internal/tree"
)

func TestFirstTouchIsFree(t *testing.T) {
	tr := tree.Star(3, 8)
	s := MustNew(tr, 1, Options{Threshold: 1})
	if cost := s.Serve(Request{Object: 0, Node: 1}); cost != 0 {
		t.Fatalf("first touch cost %d", cost)
	}
	if got := s.Copies(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("copies = %v", got)
	}
}

func TestReadReplicatesAfterThreshold(t *testing.T) {
	tr := tree.Star(3, 8)
	s := MustNew(tr, 1, Options{Threshold: 2})
	s.Serve(Request{Object: 0, Node: 1})
	// Leaf 2 reads twice: first pays 2 edges, second replicates.
	c1 := s.Serve(Request{Object: 0, Node: 2, Write: false})
	if c1 != 2 {
		t.Fatalf("first remote read cost %d, want 2", c1)
	}
	// The second read saturates the edge nearest the copy set: the hub
	// joins. Replication advances one edge per Threshold crossings.
	s.Serve(Request{Object: 0, Node: 2, Write: false})
	if got := s.Copies(0); len(got) != 2 || got[0] != 0 {
		t.Fatalf("after 2 reads copies = %v, want hub to join", got)
	}
	// Two more reads pull the copy onto the reader itself.
	s.Serve(Request{Object: 0, Node: 2, Write: false})
	s.Serve(Request{Object: 0, Node: 2, Write: false})
	has2 := false
	for _, v := range s.Copies(0) {
		if v == 2 {
			has2 = true
		}
	}
	if !has2 {
		t.Fatalf("reader not replicated to: %v", s.Copies(0))
	}
	// The next read is free.
	if c := s.Serve(Request{Object: 0, Node: 2, Write: false}); c != 0 {
		t.Fatalf("local read cost %d", c)
	}
}

func TestWriteContractsCopySet(t *testing.T) {
	tr := tree.Star(4, 8)
	s := MustNew(tr, 1, Options{Threshold: 1})
	s.Serve(Request{Object: 0, Node: 1})
	// Replicate eagerly to leaves 2 and 3.
	s.Serve(Request{Object: 0, Node: 2})
	s.Serve(Request{Object: 0, Node: 2})
	s.Serve(Request{Object: 0, Node: 3})
	s.Serve(Request{Object: 0, Node: 3})
	if len(s.Copies(0)) < 2 {
		t.Fatalf("replication did not spread: %v", s.Copies(0))
	}
	s.Serve(Request{Object: 0, Node: 2, Write: true})
	copies := s.Copies(0)
	if len(copies) != 1 {
		t.Fatalf("write did not contract: %v", copies)
	}
}

func TestRepeatedWritesMigrateToWriter(t *testing.T) {
	tr := tree.Caterpillar(4, 1, 8, 8)
	s := MustNew(tr, 1, Options{Threshold: 1})
	// Find the two extreme leaves.
	leaves := tr.Leaves()
	a, b := leaves[0], leaves[len(leaves)-1]
	s.Serve(Request{Object: 0, Node: a})
	first := s.Serve(Request{Object: 0, Node: b, Write: true})
	for i := 0; i < 10; i++ {
		s.Serve(Request{Object: 0, Node: b, Write: true})
	}
	last := s.Serve(Request{Object: 0, Node: b, Write: true})
	if last >= first {
		t.Fatalf("write cost did not shrink under migration: first %d, last %d", first, last)
	}
	if last != 0 {
		t.Fatalf("object should have migrated to the writer: cost %d", last)
	}
}

func TestCopySetStaysConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 20; trial++ {
		tr := tree.Random(rng, 8+rng.Intn(15), 4, 0.4, 8)
		s := MustNew(tr, 3, Options{Threshold: 1 + rng.Intn(3)})
		reqs := RandomSequence(rng, tr, 3, 300, 0.25)
		for i, r := range reqs {
			s.Serve(r)
			copies := s.Copies(r.Object)
			if len(copies) == 0 {
				t.Fatalf("trial %d req %d: empty copy set", trial, i)
			}
			inSet := map[tree.NodeID]bool{}
			for _, v := range copies {
				inSet[v] = true
			}
			seen := map[tree.NodeID]bool{copies[0]: true}
			queue := []tree.NodeID{copies[0]}
			count := 1
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, h := range tr.Adj(v) {
					if inSet[h.To] && !seen[h.To] {
						seen[h.To] = true
						count++
						queue = append(queue, h.To)
					}
				}
			}
			if count != len(copies) {
				t.Fatalf("trial %d req %d: copy set disconnected: %v", trial, i, copies)
			}
		}
	}
}

// E11's shape: on read-heavy sequences with locality, the online strategy
// stays within a small constant of the clairvoyant static optimum.
func TestCompetitiveAgainstStaticOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	worst := 0.0
	for trial := 0; trial < 15; trial++ {
		tr := tree.BalancedKAry(2, 3, 0)
		reqs := RandomSequence(rng, tr, 5, 2000, 0.15)
		s := MustNew(tr, 5, Options{Threshold: 2})
		s.ServeAll(reqs)
		static, err := StaticOffline(tr, 5, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if static.TotalLoad == 0 {
			continue
		}
		ratio := float64(s.TotalLoad()) / float64(static.TotalLoad)
		if ratio > worst {
			worst = ratio
		}
		if ratio > 5.0 {
			t.Fatalf("trial %d: dynamic/static total-load ratio %.2f > 5", trial, ratio)
		}
	}
	t.Logf("worst dynamic/static-offline total-load ratio: %.2f", worst)
}

func TestServePanicsOnBadObject(t *testing.T) {
	tr := tree.Star(3, 8)
	s := MustNew(tr, 1, Options{Threshold: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Serve(Request{Object: 7, Node: 1})
}
