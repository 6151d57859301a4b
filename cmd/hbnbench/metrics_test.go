package main

import (
	"strings"
	"testing"

	"hbn/internal/tree"
)

// congestionOf matches the paper's cost model on a hand-checked star:
// edges divide by switch bandwidth, the bus carries half the incident
// sum divided by its bandwidth. The -ratio harness scores every load
// vector through this one function, so the pin here is what keeps its
// numbers comparable.
func TestCongestionOf(t *testing.T) {
	tr := tree.Star(3, 4) // hub bw 4, three unit switches
	loads := []int64{6, 2, 2}
	// Edge congestion: 6/1 = 6; bus: (6+2+2)/2/4 = 1.25.
	if got := congestionOf(tr, loads); got != 6 {
		t.Fatalf("congestion %v, want 6", got)
	}
	// With fat switches the bus term dominates.
	b := tree.NewBuilder()
	hub := b.AddBus("hub", 1)
	l0 := b.AddProcessor("")
	l1 := b.AddProcessor("")
	b.Connect(hub, l0, 1)
	b.Connect(hub, l1, 1)
	tr2 := b.MustBuildHBN()
	if got := congestionOf(tr2, []int64{4, 4}); got != 4 {
		t.Fatalf("congestion %v, want 4 (bus (4+4)/2/1)", got)
	}
	// Heterogeneous switch bandwidths (inner edges may exceed 1): a load
	// of 8 on the bw-4 uplink ties a load of 2 on the unit leaf switch.
	b2 := tree.NewBuilder()
	top := b2.AddBus("top", 100)
	sub := b2.AddBus("sub", 100)
	p0 := b2.AddProcessor("")
	p1 := b2.AddProcessor("")
	b2.Connect(top, sub, 4)
	b2.Connect(sub, p0, 1)
	b2.Connect(top, p1, 1)
	tr3 := b2.MustBuildHBN()
	if got := congestionOf(tr3, []int64{8, 2, 0}); got != 2 {
		t.Fatalf("congestion %v, want 2 (8/4 == 2/1)", got)
	}
}

// -ratioguard compares against a full-scale record, so -quick with it is
// refused before anything runs, with a message naming both flags; either
// flag alone is fine.
func TestCheckFlagsRefusesQuickRatioGuard(t *testing.T) {
	err := checkFlags(true, "BENCH_pr8.json")
	if err == nil || !strings.Contains(err.Error(), "-quick") || !strings.Contains(err.Error(), "-ratioguard") {
		t.Fatalf("got %v, want an error naming -quick and -ratioguard", err)
	}
	for _, tc := range []struct {
		quick bool
		guard string
	}{{true, ""}, {false, "BENCH_pr8.json"}, {false, ""}} {
		if err := checkFlags(tc.quick, tc.guard); err != nil {
			t.Fatalf("quick %v, guard %q: %v", tc.quick, tc.guard, err)
		}
	}
}
