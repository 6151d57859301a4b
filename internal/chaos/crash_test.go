package chaos

import (
	"testing"
)

// The full sweep: exhaustive torn-write offsets (the default traffic
// produces an image comfortably under ExhaustiveLimit), both structural
// crash points, cold-start crashes, twin-restore suffix identity, and
// the conservation ledger after every recovery — all while ingesters run,
// with every round's commit cut while an epoch pass is in flight.
func TestCrashSweep(t *testing.T) {
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	rep, err := CrashSweep(t.TempDir(), CrashOptions{
		Seed:   1,
		Rounds: rounds,
	})
	if err != nil {
		t.Fatalf("sweep failed after %d crashes, %d commits: %v", rep.Crashes, rep.Commits, err)
	}
	if !rep.Exhaustive {
		t.Fatalf("image (%d bytes) unexpectedly exceeded the exhaustive limit", rep.ImageBytes)
	}
	if rep.Rounds != rounds || rep.Commits != rounds+1 {
		t.Fatalf("rounds %d commits %d, want %d and %d", rep.Rounds, rep.Commits, rounds, rounds+1)
	}
	if rep.Pending != rounds {
		t.Fatalf("%d of %d round commits were cut with an epoch pass in flight, want all", rep.Pending, rounds)
	}
	if min := int64(rounds) * rep.ImageBytes; int64(rep.Crashes) < min/2 {
		t.Fatalf("only %d crashes injected for a %d-byte image over %d rounds", rep.Crashes, rep.ImageBytes, rounds)
	}
	t.Logf("sweep: %d crashes (%d deep-verified), image %d bytes, exhaustive=%v",
		rep.Crashes, rep.Deep, rep.ImageBytes, rep.Exhaustive)
}

// Snapshots interleaved with live reconfiguration epochs: the identity
// reconfigure exercises the reconfig counters, epoch-log entries and
// dropped-load ledger through the snapshot image.
func TestCrashSweepWithReconfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestCrashSweep in short mode")
	}
	rep, err := CrashSweep(t.TempDir(), CrashOptions{
		Seed:      2,
		Rounds:    2,
		Reconfigs: true,
		// Sampled mode: force the non-exhaustive path too.
		ExhaustiveLimit: 1,
		Samples:         32,
		DeepEvery:       4,
	})
	if err != nil {
		t.Fatalf("sweep failed after %d crashes: %v", rep.Crashes, err)
	}
	if rep.Exhaustive {
		t.Fatal("expected the sampled sweep path")
	}
	if rep.Deep == 0 {
		t.Fatal("no deep verifications ran")
	}
}
