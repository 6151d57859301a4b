package main

import (
	"testing"
	"time"

	"hbn/internal/tree"
)

// congestionOf matches the paper's cost model on a hand-checked star:
// edges divide by switch bandwidth, the bus carries half the incident
// sum divided by its bandwidth. Every benchmark mode (and the -ratio
// harness in particular) scores load vectors through this one function,
// so the pin here is what keeps their numbers comparable.
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

func TestMetricHelpers(t *testing.T) {
	if maxOf([]int64{3, 9, 1}) != 9 {
		t.Fatal("maxOf arithmetic broken")
	}
	if maxOf(nil) != 0 {
		t.Fatal("maxOf of nothing must be 0")
	}
	if rate(100, 0) != 0 {
		t.Fatal("rate must guard zero durations")
	}
	if got := rate(100, 2*time.Second); got != 50 {
		t.Fatalf("rate %v, want 50", got)
	}
}
