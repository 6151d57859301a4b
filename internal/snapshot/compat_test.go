package snapshot_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hbn/internal/serve"
	"hbn/internal/snapshot"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// A cluster image carrying the retired state flag bit 0 — as a cluster
// built with the since-removed per-request serving knob wrote it —
// restores into a cluster indistinguishable from one restored from the
// same image with the bit clear: its next snapshot is byte-identical, and
// it serves the same suffix to the same loads, copies and stats.
func TestRestoreRetiredFlagBitImage(t *testing.T) {
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 24
	trace := workload.DriftingZipf(rand.New(rand.NewSource(31)), tr, objects, 4000, 3, 1.0, 0.05)
	c, err := serve.NewCluster(tr, objects, serve.Options{Shards: 2, EpochRequests: 700, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(c *serve.Cluster, events []serve.Request) {
		t.Helper()
		for lo := 0; lo < len(events); lo += 256 {
			if _, err := c.Ingest(events[lo:min(lo+256, len(events))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(c, trace[:2500])
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.hbn")
	if _, err := c.Snapshot(clean); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.hbn")
	if err := os.WriteFile(legacy, snapshot.WithStateFlags(img, 1), 0o644); err != nil {
		t.Fatal(err)
	}

	restore := func(path string) (*serve.Cluster, []byte) {
		t.Helper()
		r, _, err := serve.Restore(path, serve.RestoreOptions{})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		again := path + ".again"
		if _, err := r.Snapshot(again); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		return r, b
	}
	rc, imgC := restore(clean)
	rl, imgL := restore(legacy)
	if !bytes.Equal(imgC, imgL) {
		t.Fatal("snapshot of the bit-0 restore differs from the clean restore's")
	}

	ingest(rc, trace[2500:])
	ingest(rl, trace[2500:])
	if !slices.Equal(rc.EdgeLoad(), rl.EdgeLoad()) || !slices.Equal(rc.ServiceLoad(), rl.ServiceLoad()) {
		t.Fatal("loads diverge after serving the suffix")
	}
	for x := 0; x < objects; x++ {
		if !slices.Equal(rc.Copies(x), rl.Copies(x)) {
			t.Fatalf("object %d: copies %v != %v", x, rl.Copies(x), rc.Copies(x))
		}
	}
	sc, sl := rc.Stats(), rl.Stats()
	sc.ResolveTime, sl.ResolveTime = 0, 0
	if sc != sl {
		t.Fatalf("stats diverge: %+v vs %+v", sl, sc)
	}
}
