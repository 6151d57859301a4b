package serve

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hbn/internal/topo"
	"hbn/internal/workload"
)

// SnapshotWait bridges "snapshot now" intent and the cluster's fail-fast
// reconfig flag: it retries Snapshot across ErrReconfigInProgress windows
// with a bounded, doubling backoff instead of queueing behind the roll.
func TestSnapshotWait(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 2000, 2, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 500, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ingestAll(t, c, trace, 256)
	dir := t.TempDir()

	t.Run("idle cluster succeeds on the first attempt", func(t *testing.T) {
		ss, err := c.SnapshotWait(filepath.Join(dir, "a.hbn"), 5, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if ss.Seq == 0 {
			t.Fatal("no sequence number on a successful snapshot")
		}
	})

	// With the reconfig flag held for the whole call, every attempt budget
	// surfaces ErrReconfigInProgress — never a hang — and a non-positive
	// budget is normalized to a single attempt rather than zero.
	busyCases := []struct {
		name     string
		attempts int
	}{
		{"zero attempts normalizes to one", 0},
		{"negative attempts normalizes to one", -3},
		{"single attempt", 1},
		{"several attempts exhaust", 3},
	}
	for _, tc := range busyCases {
		t.Run(tc.name, func(t *testing.T) {
			c.reconfiguring.Store(true)
			defer c.reconfiguring.Store(false)
			if _, err := c.SnapshotWait(filepath.Join(dir, "busy.hbn"), tc.attempts, 100*time.Microsecond); !errors.Is(err, ErrReconfigInProgress) {
				t.Fatalf("got %v, want ErrReconfigInProgress", err)
			}
		})
	}

	t.Run("outlasts a racing rolling reconfiguration", func(t *testing.T) {
		release := make(chan struct{})
		entered := make(chan struct{})
		var once sync.Once
		c.rollHook = func(int) {
			once.Do(func() { close(entered) })
			<-release
		}
		defer func() { c.rollHook = nil }()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Reconfigure(topo.Diff{}); err != nil {
				t.Errorf("rolling reconfigure: %v", err)
			}
		}()
		<-entered

		// Mid-roll, a plain Snapshot fails fast; SnapshotWait with budget
		// left keeps retrying and lands once the roll releases.
		if _, err := c.Snapshot(filepath.Join(dir, "mid.hbn")); !errors.Is(err, ErrReconfigInProgress) {
			t.Fatalf("plain snapshot mid-roll: got %v, want ErrReconfigInProgress", err)
		}
		timer := time.AfterFunc(20*time.Millisecond, func() { close(release) })
		defer timer.Stop()
		ss, err := c.SnapshotWait(filepath.Join(dir, "after.hbn"), 64, time.Millisecond)
		wg.Wait()
		if err != nil {
			t.Fatalf("SnapshotWait across the roll: %v", err)
		}
		if ss.Seq == 0 {
			t.Fatal("no sequence number after the roll cleared")
		}
	})
}
