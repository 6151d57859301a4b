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
	checkLegacyImageRestores(t, func(img []byte) []byte { return snapshot.WithStateFlags(img, 1) })
}

// An image whose retired decay-shift slot holds 0 — the full-history
// default every writer used before epoch passes always aged — restores
// into the same cluster as the image with the slot at 1, and halves from
// its next pass on: its next snapshot is byte-identical, and it serves the
// same suffix (two more cadence passes) to the same loads, copies and
// stats.
func TestRestoreFullHistoryImage(t *testing.T) {
	checkLegacyImageRestores(t, func(img []byte) []byte { return snapshot.WithDecaySlot(img, 0) })
}

// checkLegacyImageRestores snapshots a drifting-Zipf cluster mid-trace,
// rewrites the image with legacy, and checks that restoring the rewritten
// image and the clean one gives indistinguishable clusters.
func checkLegacyImageRestores(t *testing.T, legacy func([]byte) []byte) {
	t.Helper()
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
	rewritten := legacy(img)
	if bytes.Equal(rewritten, img) {
		t.Fatal("the legacy rewrite left the image unchanged")
	}
	old := filepath.Join(dir, "legacy.hbn")
	if err := os.WriteFile(old, rewritten, 0o644); err != nil {
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
	rl, imgL := restore(old)
	if !bytes.Equal(imgC, imgL) {
		t.Fatal("snapshot of the legacy restore differs from the clean restore's")
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
