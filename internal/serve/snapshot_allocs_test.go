package serve

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"hbn/internal/snapshot"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// driftShapeCluster serves a drifting-Zipf trace on a cluster of the
// bench's ingest-drift shape — SCICluster(8, 8, 32, 16), 1024 objects, 2
// shards, threshold 8, an epoch pass every 20000 requests, 1024-request
// batches — and stops mid-epoch, so the drift queues are non-empty.
func driftShapeCluster(tb testing.TB) *Cluster {
	tb.Helper()
	tr := tree.SCICluster(8, 8, 32, 16)
	const objects, batch = 1024, 1024
	trace := workload.DriftingZipf(rand.New(rand.NewSource(1)), tr, objects, 410*batch, 6, 1.0, 0.03)
	c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 8, EpochRequests: 20000})
	if err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < len(trace); lo += batch {
		if _, err := c.Ingest(trace[lo : lo+batch]); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// A warm Snapshot encodes from live state into one buffer sized from the
// previous image: it allocates less than 1.5× the image in bytes and
// fewer than 100 objects. The copy-based cut it replaced cloned four
// dense 1024×73 tables and allocated every exported object's slices:
// about 18× the image and 3,300 objects per call on this shape.
func TestSnapshotAllocs(t *testing.T) {
	c := driftShapeCluster(t)
	path := filepath.Join(t.TempDir(), "snap.hbn")
	if _, err := c.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var image int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		ss, err := c.Snapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		image = ss.Bytes
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / runs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("warm Snapshot: %.0f B and %.1f allocs per call for a %d B image", bytes, allocs, image)
	if bytes >= 1.5*float64(image) || allocs >= 100 {
		t.Errorf("warm Snapshot allocates %.0f B and %.1f objects per call for a %d B image; want < %.0f B and < 100",
			bytes, allocs, image, 1.5*float64(image))
	}
}

// RestoreState builds its cluster around the decoded frequency tables, so
// it allocates no table it then throws away: on the ingest-drift shape it
// allocates less than a fresh NewCluster of the same shape plus one
// table. Building a fresh cluster and then installing the decoded tables
// over its own allocated NewCluster plus about three tables (7.67 MB
// against 4.08 MB here, with 1.20 MB tables).
func TestRestoreAllocatesNoDroppedTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards read noise under -race")
	}
	c := driftShapeCluster(t)
	path := filepath.Join(t.TempDir(), "snap.hbn")
	if _, err := c.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) int64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	restore := allocated(func() {
		if _, err := RestoreState(st, RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	fresh := allocated(func() {
		if _, err := NewCluster(c.t, c.numObjects, c.opts); err != nil {
			t.Fatal(err)
		}
	})
	table := int64(c.numObjects * c.t.Len() * 16)
	t.Logf("RestoreState: %d B; fresh NewCluster: %d B; one table: %d B", restore, fresh, table)
	if restore >= fresh+table {
		t.Fatalf("RestoreState allocates %d B, want less than a fresh cluster plus one table (%d B)", restore, fresh+table)
	}
}

// BenchmarkSnapshot times warm Snapshot calls on the ingest-drift shape
// and reports where the time goes: the cut (which holds the ingest gate
// and includes the encode), the encode alone, and the write (temp file,
// fsync, rename), in ms per call, and the image size. The cases:
//
//   - ingest-drift: driftShapeCluster, cut mid-epoch after 20 passes.
//   - never-folded: the same shape under the ingest-write-storm traffic
//     with no passes, so no object was ever folded and every last-fold
//     row is zero.
func BenchmarkSnapshot(b *testing.B) {
	b.Run("ingest-drift", func(b *testing.B) { benchSnapshot(b, driftShapeCluster(b)) })
	b.Run("never-folded", func(b *testing.B) {
		tr := tree.SCICluster(8, 8, 32, 16)
		const objects, batch = 1024, 1024
		trace := workload.WriteStorm(rand.New(rand.NewSource(1)), tr, objects, 410*batch, 4, 0.05)
		c, err := NewCluster(tr, objects, Options{Shards: 2, Threshold: 8})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(trace); lo += batch {
			if _, err := c.Ingest(trace[lo : lo+batch]); err != nil {
				b.Fatal(err)
			}
		}
		benchSnapshot(b, c)
	})
}

func benchSnapshot(b *testing.B, c *Cluster) {
	path := filepath.Join(b.TempDir(), "snap.hbn")
	if _, err := c.Snapshot(path); err != nil {
		b.Fatal(err)
	}
	var cut, enc, write time.Duration
	var image int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := c.Snapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		cut += ss.CutStall
		enc += ss.EncodeElapsed
		write += ss.WriteElapsed
		image = ss.Bytes
	}
	perCall := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(b.N) }
	b.ReportMetric(perCall(cut), "cut-ms/op")
	b.ReportMetric(perCall(enc), "encode-ms/op")
	b.ReportMetric(perCall(write), "write-ms/op")
	b.ReportMetric(float64(image), "image-B")
}
