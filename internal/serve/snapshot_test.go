package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hbn/internal/snapshot"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// compareClusters asserts two clusters are observationally identical:
// stats, per-edge aggregate and service loads, every object's copy set,
// and the epoch log. blankTimes strips wall-clock fields (meaningful when
// the two clusters ran their epochs independently; at-cut comparisons
// pass false because restore carries times verbatim).
func compareClusters(t *testing.T, label string, a, b *Cluster, numObjects int, blankTimes bool) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if blankTimes {
		sa.ResolveTime, sb.ResolveTime = 0, 0
	}
	if sa != sb {
		t.Fatalf("%s: stats differ:\n  a: %+v\n  b: %+v", label, sa, sb)
	}
	if !reflect.DeepEqual(a.EdgeLoad(), b.EdgeLoad()) {
		t.Fatalf("%s: edge loads differ", label)
	}
	if !reflect.DeepEqual(a.ServiceLoad(), b.ServiceLoad()) {
		t.Fatalf("%s: service loads differ", label)
	}
	for x := 0; x < numObjects; x++ {
		if !reflect.DeepEqual(a.Copies(x), b.Copies(x)) {
			t.Fatalf("%s: object %d copies differ: %v vs %v", label, x, a.Copies(x), b.Copies(x))
		}
	}
	la, lb := a.EpochLog(), b.EpochLog()
	if blankTimes {
		for i := range la {
			la[i].ResolveNs = 0
		}
		for i := range lb {
			lb[i].ResolveNs = 0
		}
	}
	if !reflect.DeepEqual(la, lb) {
		t.Fatalf("%s: epoch logs differ:\n  a: %+v\n  b: %+v", label, la, lb)
	}
}

// Snapshot → Restore round-trips the identity across the topology zoo and
// shard counts {1, 4, 64}: the restored cluster equals the source at the
// cut point (stats, aggregate loads, adopted placements — times included,
// they travel in the image), and serving the same trace suffix on both
// keeps them bit-identical through further epoch passes. The mid-pass
// cases serve 40-event batches, so each pass is spread over passCalls
// calls, and cut two calls into one: the image records the pass in
// flight, and the restored cluster adopts it on the source's call.
func TestSnapshotRestoreIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range testTrees(rng) {
		for _, shards := range []int{1, 4, 64} {
			for _, mid := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d", tc.name, shards)
				batch, cut := 256, 4000
				if mid {
					// The pass folded at 3600 requests starts on the 90th
					// call; the cut follows its second.
					name, batch, cut = name+"/mid-pass", 40, 3640
				}
				t.Run(name, func(t *testing.T) { checkRestoreIdentity(t, tc.tr, shards, batch, cut, mid) })
			}
		}
	}
}

func checkRestoreIdentity(t *testing.T, tr *tree.Tree, shards, batch, cut int, mid bool) {
	const objects = 48
	trace := workload.DriftingZipf(rand.New(rand.NewSource(7)), tr, objects, 6000, 4, 1.0, 0.07)
	c, err := NewCluster(tr, objects, Options{
		Shards: shards, EpochRequests: 900, Threshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace[:cut], batch)

	path := filepath.Join(t.TempDir(), "snap.hbn")
	ss, err := c.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Seq != 1 || ss.Bytes <= 0 {
		t.Fatalf("bad snapshot stats: %+v", ss)
	}

	r, info, err := Restore(path, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Fallback || info.Seq != 1 {
		t.Fatalf("bad restore info: %+v", info)
	}
	if got := r.inFlight.Load(); got != mid {
		t.Fatalf("restored cluster has a pass in flight: %v, want %v", got, mid)
	}
	compareClusters(t, "at cut", c, r, objects, false)

	// Same suffix on both: epoch passes, adoption decisions and
	// threshold dynamics must all line up exactly.
	ingestAll(t, c, trace[cut:], batch)
	ingestAll(t, r, trace[cut:], batch)
	if err := c.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if err := r.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	compareClusters(t, "after suffix", c, r, objects, true)
}

// A snapshot of the restored cluster is byte-identical to a fresh
// snapshot of the source: the capture itself is deterministic, so
// generation N+1 of a restored lineage matches what the original would
// have written.
func TestSnapshotOfRestoreIsByteIdentical(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr // sci
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 3000, 3, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 700, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace, 256)

	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.hbn")
	if _, err := c.Snapshot(p1); err != nil {
		t.Fatal(err)
	}
	r, _, err := Restore(p1, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "b.hbn")
	p3 := filepath.Join(dir, "c.hbn")
	if _, err := c.Snapshot(p2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(p3); err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := os.ReadFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b2, b3) {
		t.Fatalf("snapshots of source and restored cluster differ (%d vs %d bytes)", len(b2), len(b3))
	}
}

// The ingest stall is bounded by the in-memory cut, not the disk write:
// the BeforeWrite hook runs after the gate is released, so an Ingest call
// issued from inside it must succeed (it would deadlock forever if the
// gate were still held), and the measured CutStall stays far below a
// WriteElapsed inflated by the hook's sleep.
func TestSnapshotStall(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 3000, 3, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 700, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace[:2000], 256)

	const sleep = 40 * time.Millisecond
	var hookErr error
	hooked := false
	ss, err := c.SnapshotWith(filepath.Join(t.TempDir(), "snap.hbn"), snapshot.SaveOptions{
		BeforeWrite: func() {
			hooked = true
			_, hookErr = c.Ingest(trace[2000:2200])
			time.Sleep(sleep)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("BeforeWrite hook did not run")
	}
	if hookErr != nil {
		t.Fatalf("ingest during the disk write failed: %v", hookErr)
	}
	if ss.WriteElapsed < sleep {
		t.Fatalf("WriteElapsed %v should include the %v hook sleep", ss.WriteElapsed, sleep)
	}
	if ss.CutStall >= ss.WriteElapsed {
		t.Fatalf("cut stall %v not bounded below the write %v", ss.CutStall, ss.WriteElapsed)
	}
	// The hook's requests landed after the cut: they are not in the image.
	r, _, err := Restore(filepath.Join(t.TempDir(), "nope"), RestoreOptions{})
	if err == nil {
		r.Close()
		t.Fatal("restore of a missing path succeeded")
	}
}

// Snapshot and reconfiguration exclude each other without failing: a
// snapshot called while a roll is frozen mid-swap waits for the commit and
// captures the new tree, and a reconfiguration called while a snapshot is
// being written runs, while the file gets the image cut before it.
func TestSnapshotReconfigMutualExclusion(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 2000, 2, 1.0, 0.05)
	leaves := tr.Leaves()
	diff := topo.Diff{Remove: []tree.NodeID{leaves[len(leaves)-1]}}
	dir := t.TempDir()
	served := func(t *testing.T) *Cluster {
		c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 500, Threshold: 3})
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, c, trace, 256)
		return c
	}

	t.Run("snapshot during roll", func(t *testing.T) {
		c := served(t)
		entered, release := make(chan struct{}), make(chan struct{})
		c.rollHook = func(migrated int) {
			if migrated == 1 {
				close(entered)
				<-release
			}
		}
		rolled := make(chan error, 1)
		go func() {
			_, err := c.Reconfigure(diff)
			rolled <- err
		}()
		<-entered
		path := filepath.Join(dir, "mid.hbn")
		snapped := make(chan error, 1)
		go func() {
			_, err := c.Snapshot(path)
			snapped <- err
		}()
		select {
		case err := <-snapped:
			close(release)
			t.Fatalf("snapshot returned mid-roll (err %v); want it to wait for the commit", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if err := <-rolled; err != nil {
			t.Fatal(err)
		}
		if err := <-snapped; err != nil {
			t.Fatal(err)
		}
		r, _, err := Restore(path, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Tree().Len(), c.Tree().Len(); got != want || want == tr.Len() {
			t.Fatalf("image holds a %d-node tree; want the post-roll %d nodes (pre-roll %d)", got, want, tr.Len())
		}
		compareClusters(t, "post-roll image", c, r, objects, false)
	})

	t.Run("reconfigure during snapshot", func(t *testing.T) {
		c, twin := served(t), served(t)
		var recErr error
		path := filepath.Join(dir, "snap.hbn")
		_, err := c.SnapshotWith(path, snapshot.SaveOptions{
			BeforeWrite: func() { _, recErr = c.Reconfigure(diff) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if recErr != nil {
			t.Fatalf("reconfigure mid-snapshot: %v", recErr)
		}
		if c.Stats().Reconfigs != 1 || c.Tree().Len() == tr.Len() {
			t.Fatalf("reconfigure mid-snapshot did not apply: %d reconfigurations, %d nodes", c.Stats().Reconfigs, c.Tree().Len())
		}
		r, _, err := Restore(path, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		compareClusters(t, "pre-reconfiguration image", twin, r, objects, true)
	})
}

// Snapshots taken from several goroutines while another ingests all
// succeed, one at a time, cut and write, so the file holds the newest.
func TestConcurrentSnapshots(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects, writers, each = 32, 4, 5
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 4000, 2, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 500, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.hbn")
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				if _, err := c.Snapshot(path); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ingestAll(t, c, trace, 100)
	wg.Wait()
	r, _, err := Restore(path, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SnapshotSeq(); got != writers*each {
		t.Fatalf("file holds snapshot %d of %d", got, writers*each)
	}
}

// An Ingest call made while a snapshot is being written runs its pass work
// as it would with no snapshot: a batch that crosses the epoch boundary
// from the BeforeWrite hook runs the pass it runs outside a snapshot (200
// events against a cadence of 1,000, so the pass runs whole on the call).
func TestEpochPassDuringSnapshotWrite(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 1100, 2, 1.0, 0.05)
	serve := func(t *testing.T, crossing func(c *Cluster, ingest func())) *Cluster {
		c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 1000, Threshold: 3})
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, c, trace[:900], 300)
		var ingestErr error
		crossing(c, func() { _, ingestErr = c.Ingest(trace[900:]) })
		if ingestErr != nil {
			t.Fatal(ingestErr)
		}
		return c
	}
	plain := serve(t, func(_ *Cluster, ingest func()) { ingest() })
	if got := plain.Stats().Epochs; got != 1 {
		t.Fatalf("crossing batch without a snapshot: %d epochs, want 1", got)
	}
	during := serve(t, func(c *Cluster, ingest func()) {
		if _, err := c.SnapshotWith(filepath.Join(t.TempDir(), "snap.hbn"), snapshot.SaveOptions{BeforeWrite: ingest}); err != nil {
			t.Fatal(err)
		}
	})
	compareClusters(t, "crossing batch during the snapshot write", plain, during, objects, true)
}

// Restore walks the generation ladder: a damaged primary falls back to
// the retained previous generation; with both generations unusable the
// typed errors distinguish "never written" from "written and damaged".
func TestRestoreFallbackLadder(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 3000, 3, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 700, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.hbn")

	ingestAll(t, c, trace[:1500], 256)
	if _, err := c.Snapshot(path); err != nil { // seq 1 → primary
		t.Fatal(err)
	}
	ingestAll(t, c, trace[1500:], 256)
	if _, err := c.Snapshot(path); err != nil { // seq 2 → primary, seq 1 → prev
		t.Fatal(err)
	}

	// Bit-flip the primary: restore lands on generation 1.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	r, info, err := Restore(path, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fallback || info.Seq != 1 || info.Path != snapshot.PrevPath(path) {
		t.Fatalf("bad fallback info: %+v", info)
	}
	if r.SnapshotSeq() != 1 {
		t.Fatalf("restored seq %d, want 1", r.SnapshotSeq())
	}

	// Both generations damaged: typed corruption, never a panic.
	if err := os.WriteFile(snapshot.PrevPath(path), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(path, RestoreOptions{}); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("both damaged: got %v, want ErrCorrupt", err)
	}

	// Nothing ever written: ErrNoSnapshot (the fresh-start signal).
	if _, _, err := Restore(filepath.Join(t.TempDir(), "never.hbn"), RestoreOptions{}); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("missing both: got %v, want ErrNoSnapshot", err)
	}
}

// A cluster restored through the fallback ladder keeps the generation it
// came from until its own first snapshot commits: a kill at any byte of
// that write, or before its renames, still recovers it from path.prev.
// Once the cluster has committed an image, a torn write recovers that
// image from the primary.
func TestSnapshotAfterFallbackKeepsPrev(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 3000, 3, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 700, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.hbn")
	ingestAll(t, c, trace[:1500], 256)
	if _, err := c.Snapshot(path); err != nil { // seq 1, the generation to fall back to
		t.Fatal(err)
	}
	ingestAll(t, c, trace[1500:], 256)
	if _, err := c.Snapshot(path); err != nil { // seq 2
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	r, info, err := Restore(path, RestoreOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !info.Fallback || info.Seq != 1 {
		t.Fatalf("restore did not fall back to seq 1: %+v", info)
	}

	// crash injects opts into a snapshot and checks that the ladder then
	// recovers seq from the file from.
	crash := func(opts snapshot.SaveOptions, seq uint64, from string) int64 {
		t.Helper()
		ss, err := r.SnapshotWith(path, opts)
		if !errors.Is(err, snapshot.ErrInjectedCrash) {
			t.Fatalf("%+v: got %v, want an injected crash", opts, err)
		}
		st, got, err := snapshot.ReadLadder(path)
		if err != nil {
			t.Fatalf("%+v: ladder: %v", opts, err)
		}
		if st.Seq != seq || got != from {
			t.Fatalf("%+v: recovered seq %d from %q; want seq %d from %q", opts, st.Seq, got, seq, from)
		}
		return ss.Bytes
	}
	prev := snapshot.PrevPath(path)
	size := crash(snapshot.SaveOptions{Crash: snapshot.CrashDuringWrite}, 1, prev)
	for _, cut := range []int64{1, size / 2, size} {
		crash(snapshot.SaveOptions{Crash: snapshot.CrashDuringWrite, CrashAfter: cut}, 1, prev)
	}
	crash(snapshot.SaveOptions{Crash: snapshot.CrashBeforeRename}, 1, prev)

	ss, err := r.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{0, ss.Bytes / 2, ss.Bytes} {
		crash(snapshot.SaveOptions{Crash: snapshot.CrashDuringWrite, CrashAfter: cut}, ss.Seq, path)
	}
}

// The mutating entry points of a closed cluster all fail with the typed
// ErrClosed sentinel (satellite: replaces the old ad-hoc errors).
func TestClosedTypedErrors(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[0].tr
	c, err := NewCluster(tr, 8, Options{Shards: 2, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	cases := []struct {
		name string
		call func() error
	}{
		{"Ingest", func() error { _, err := c.Ingest([]Request{{Object: 0, Node: leaves[0]}}); return err }},
		{"ResolveNow", func() error { return c.ResolveNow() }},
		{"Reconfigure", func() error { _, err := c.Reconfigure(topo.Diff{}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); !errors.Is(err, ErrClosed) {
				t.Fatalf("got %v, want ErrClosed", err)
			}
		})
	}
}

// A closed cluster can still be snapshotted — the shutdown-for-handoff
// sequence: Close, Snapshot, Restore elsewhere, continue serving.
func TestSnapshotAfterClose(t *testing.T) {
	tr := testTrees(rand.New(rand.NewSource(3)))[3].tr
	const objects = 32
	trace := workload.DriftingZipf(rand.New(rand.NewSource(5)), tr, objects, 3000, 3, 1.0, 0.05)
	c, err := NewCluster(tr, objects, Options{Shards: 4, EpochRequests: 700, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, c, trace[:2000], 256)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.hbn")
	if _, err := c.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	r, _, err := Restore(path, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compareClusters(t, "handoff", c, r, objects, false)
	ingestAll(t, r, trace[2000:], 256) // the successor serves on
	if r.Stats().Requests != int64(len(trace)) {
		t.Fatalf("successor served %d of %d", r.Stats().Requests, len(trace))
	}
}

// A v2 image can hold a last-fold count above its recorded count, which no
// cluster writes: serving it would fold a negative frequency, and the
// epoch pass panics on one (on a connection goroutine, in hbnd). Restore
// rejects the image as corrupt. The committed image is a served cluster's,
// with object 3's last-fold reads at the first leaf raised to 2^30.
func TestRestoreRejectsLastFoldAboveRecorded(t *testing.T) {
	r, _, err := Restore(filepath.Join("testdata", "prev-above-tracker-v2.snap"), RestoreOptions{})
	if err == nil {
		// Serving the image: one read of the object, then a pass.
		if _, err := r.Ingest([]Request{{Object: 3, Node: r.Tree().Leaves()[0]}}); err != nil {
			t.Fatal(err)
		}
		if err := r.ResolveNow(); err != nil {
			t.Fatal(err)
		}
		t.Fatal("restored an image whose last-fold count exceeds its recorded count")
	}
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}
