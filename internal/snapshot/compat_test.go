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

// legacyCluster is the cluster that wrote the committed v2 images
// testdata/legacy-v2*.snap, with the trace it served: the images were cut
// after trace[:2500], with table-mode and table-free objects present and
// both shards' drift queues non-empty.
func legacyCluster() ([]serve.Request, int) {
	tr := tree.SCICluster(3, 4, 16, 8)
	const objects = 24
	return workload.DriftingZipf(rand.New(rand.NewSource(31)), tr, objects, 4000, 3, 1.0, 0.05), objects
}

// The v2 image a cluster wrote restores to exactly what it holds, and
// serves like its own v3 re-encode.
func TestRestoreV2Image(t *testing.T) {
	checkLegacyImageRestores(t, "legacy-v2.snap")
}

// A v2 image carrying the retired state flag bit 0 — as a cluster built
// with the since-removed per-request serving knob wrote it — restores to
// exactly what it holds, as the image with the bit clear does.
func TestRestoreRetiredFlagBitImage(t *testing.T) {
	checkLegacyImageRestores(t, "legacy-v2-flag0.snap")
}

// A v2 image whose retired decay-shift slot holds 0 — the full-history
// default every writer used before epoch passes always aged — restores to
// the same cluster as the image with the slot at 1, and halves from its
// next pass on.
func TestRestoreFullHistoryImage(t *testing.T) {
	checkLegacyImageRestores(t, "legacy-v2-slot0.snap")
}

// checkLegacyImageRestores restores the committed v2 image file and
// checks three things. The restored cluster's snapshot is the v3 encoding
// of the decoded image (copies in list order, counters, streaks, tables,
// loads, ledger, epoch log and drift queues, with the sequence number
// advanced by the new cut), and is the same for every variant of the
// image. And the image's restore and the restore of its v3 re-encode
// serve the rest of the trace to the same loads, copy sets and stats.
func checkLegacyImageRestores(t *testing.T, file string) {
	t.Helper()
	trace, objects := legacyCluster()
	dir := t.TempDir()
	img, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	st.Seq++
	want := snapshot.Encode(st)
	st.Seq--
	v2, v3 := filepath.Join(dir, "v2.hbn"), filepath.Join(dir, "v3.hbn")
	if err := os.WriteFile(v2, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v3, snapshot.Encode(st), 0o644); err != nil {
		t.Fatal(err)
	}

	restore := func(path string) *serve.Cluster {
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
		if !bytes.Equal(b, want) {
			t.Fatalf("%s: the restored cluster's snapshot differs from the image's own state", filepath.Base(path))
		}
		return r
	}
	r2, r3 := restore(v2), restore(v3)
	clean, err := os.ReadFile(filepath.Join("testdata", "legacy-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	cst, err := snapshot.Decode(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot.Encode(cst), snapshot.Encode(st)) {
		t.Fatal("the variant decodes to another state than the clean image")
	}

	ingest := func(c *serve.Cluster, events []serve.Request) {
		t.Helper()
		for lo := 0; lo < len(events); lo += 256 {
			if _, err := c.Ingest(events[lo:min(lo+256, len(events))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(r2, trace[2500:])
	ingest(r3, trace[2500:])
	if !slices.Equal(r2.EdgeLoad(), r3.EdgeLoad()) || !slices.Equal(r2.ServiceLoad(), r3.ServiceLoad()) {
		t.Fatal("loads diverge after serving the suffix")
	}
	for x := 0; x < objects; x++ {
		if !slices.Equal(r2.Copies(x), r3.Copies(x)) {
			t.Fatalf("object %d: copies %v != %v", x, r2.Copies(x), r3.Copies(x))
		}
	}
	s2, s3 := r2.Stats(), r3.Stats()
	s2.ResolveTime, s3.ResolveTime = 0, 0
	if s2 != s3 {
		t.Fatalf("stats diverge: %+v vs %+v", s2, s3)
	}
	if s2.Epochs <= st.Epochs {
		t.Fatal("the suffix ran no epoch pass")
	}
}
