package chaos

import (
	"testing"
	"time"
)

// Every compound scenario with the jammer racing the injector — run under
// -race in CI. Run itself checks the conservation invariants (exact
// request conservation, the service-cost ledger closing through dropped
// switch loads, no requested object left copyless); the test only has to
// drive it and pin the script accounting.
func TestCompoundScenarios(t *testing.T) {
	for _, s := range Scenarios(4 * 64 * 24) {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			o := Options{
				Seed:       1,
				Jam:        true,
				Background: true,
				// Stretch the stream so scripted faults land mid-traffic
				// instead of after it.
				Pace: 100 * time.Microsecond,
			}
			if s.Name == "scaleout-write-storm" {
				o.WriteFrac = 0.8
			}
			res, err := Run(s, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.FaultsApplied+res.FaultsSkipped != len(s.Faults) {
				t.Fatalf("script ran %d+%d faults, want %d",
					res.FaultsApplied, res.FaultsSkipped, len(s.Faults))
			}
			if res.Requests == 0 || res.TotalCost == 0 {
				t.Fatalf("no traffic measured: %+v", res)
			}
			t.Logf("faults %d (skipped %d), busy %d, max stall %v, p50/p99/max ingest %v/%v/%v, dropped service %d",
				res.FaultsApplied, res.FaultsSkipped, res.Busy, res.MaxIngestStall,
				res.P50, res.P99, res.Max, res.DroppedServiceLoad)
		})
	}
}

// A second reconfiguration mid-flight may only ever lose with the typed
// error, and the loser must be able to retry to completion: the cascade
// scenario with a hot jammer hammers exactly that path; what the test
// adds over TestCompoundScenarios is the assertion that the injector's
// script ALWAYS completes (every scripted fault applied or deliberately
// skipped) even while losing races to the jammer.
func TestJammerNeverWedgesInjector(t *testing.T) {
	s := Scenarios(2 * 64 * 16)[0] // cascade-failover
	res, err := Run(s, Options{
		Seed:      7,
		Ingesters: 2,
		Batches:   16,
		Jam:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsApplied+res.FaultsSkipped != len(s.Faults) {
		t.Fatalf("injector wedged: %d of %d faults ran", res.FaultsApplied, len(s.Faults))
	}
}

// The determinism contract, pinned in its strongest form: with one
// ingester, inline epoch passes, no jammer and faults keyed to exact
// batch boundaries, two runs of the same (scenario, seed) produce
// identical traffic accounting — requests, total cost, drops. (With
// concurrency the interleaving varies and only the invariants are
// stable; this configuration removes the concurrency.)
func TestScriptedRunIsDeterministic(t *testing.T) {
	s := Scenario{
		Name: "deterministic", Rings: 4, Procs: 4, BusBW: 32, SwitchBW: 16, StableRings: 2,
		Faults: []Fault{
			{After: 256, Kind: RemoveTailRing},
			{After: 512, Kind: Brownout},
			{After: 768, Kind: AddRing},
			{After: 1024, Kind: Recover},
		},
	}
	o := Options{Seed: 99, Ingesters: 1, Batch: 64, Batches: 24}
	r1, err := Run(s, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s, o)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Requests != r2.Requests || r1.TotalCost != r2.TotalCost ||
		r1.DroppedLoad != r2.DroppedLoad || r1.DroppedServiceLoad != r2.DroppedServiceLoad ||
		r1.FaultsApplied != r2.FaultsApplied {
		t.Fatalf("same seed diverged:\n%+v\n%+v", r1, r2)
	}
	if r1.FaultsApplied != len(s.Faults) {
		t.Fatalf("applied %d faults, want %d", r1.FaultsApplied, len(s.Faults))
	}
}

// Degenerate scenario shapes are rejected up front, not by downstream
// panics.
func TestScenarioValidation(t *testing.T) {
	if _, err := Run(Scenario{Rings: 0, Procs: 4, StableRings: 1}, Options{}); err == nil {
		t.Fatal("zero rings accepted")
	}
	if _, err := Run(Scenario{Rings: 2, Procs: 4, StableRings: 3}, Options{}); err == nil {
		t.Fatal("more stable rings than rings accepted")
	}
	if _, err := Run(Scenario{Rings: 2, Procs: 4, StableRings: 0}, Options{}); err == nil {
		t.Fatal("zero stable rings accepted")
	}
}

// FuzzChaosScenario drives randomized fault scripts (kinds, thresholds,
// seed) through tiny clusters: whatever the script, Run must
// terminate with the invariants intact — any violation or deadlock is a
// crasher. Sizes stay minimal so the CI smoke budget explores scripts,
// not solver time.
func FuzzChaosScenario(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(2), []byte{0, 0, 0, 1, 1})
	f.Add(int64(3), []byte{2, 3, 2, 3, 2, 3})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 6 {
			script = script[:6]
		}
		total := int64(2 * 32 * 6)
		s := Scenario{
			Name: "fuzz", Rings: 3, Procs: 3, BusBW: 16, SwitchBW: 8, StableRings: 2,
		}
		for i, b := range script {
			s.Faults = append(s.Faults, Fault{
				After: total * int64(i) / int64(len(script)+1),
				Kind:  Kind(int(b) % numKinds),
			})
		}
		if _, err := Run(s, Options{
			Seed:      seed,
			Objects:   8,
			Ingesters: 2,
			Batch:     32,
			Batches:   6,
			Shards:    2,
		}); err != nil {
			t.Fatal(err)
		}
	})
}
