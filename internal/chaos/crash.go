package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"

	"hbn/internal/serve"
	"hbn/internal/snapshot"
	"hbn/internal/topo"
	"hbn/internal/tree"
)

// CrashOptions tune a crash-point sweep (see CrashSweep). The zero value
// gets sensible defaults.
type CrashOptions struct {
	// Seed derives every PRNG of the run (traffic and offset sampling).
	Seed int64
	// Objects / Ingesters / Batch / BatchesPerRound shape the live traffic
	// running while snapshots crash. Defaults: 16 objects, 3 ingesters, 64
	// requests, 8 batches per ingester per round.
	Objects, Ingesters, Batch, BatchesPerRound int
	// WriteFrac is the write fraction of the traffic (default 0.1).
	WriteFrac float64
	// Shards / Threshold / EpochRequests configure the cluster. Defaults:
	// 4 shards, threshold 3, an epoch every half round of traffic.
	Shards, Threshold int
	EpochRequests     int64
	// Rounds is the number of commit-then-sweep rounds (default 3).
	Rounds int
	// ExhaustiveLimit: when the snapshot image is at most this many bytes,
	// CrashDuringWrite is injected at EVERY byte offset of the image;
	// larger images get the structural boundaries plus Samples seeded
	// offsets. Defaults: 16384 and 64.
	ExhaustiveLimit int64
	Samples         int
	// Reconfigs additionally runs an identity reconfiguration before each
	// round's commit, so snapshots interleave with the reconfiguration
	// machinery (epoch log entries, Reconfigs counters) they must capture.
	Reconfigs bool
	// DeepEvery is the stride at which swept offsets get the full
	// restore-and-compare verification (boundaries and structural points
	// always do); the offsets in between assert the committed generation's
	// bytes are untouched and still decode to the committed sequence
	// number. Default 16.
	DeepEvery int
}

func (o *CrashOptions) defaults() {
	if o.Objects <= 0 {
		o.Objects = 16
	}
	if o.Ingesters <= 0 {
		o.Ingesters = 3
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.BatchesPerRound <= 0 {
		o.BatchesPerRound = 8
	}
	if o.WriteFrac == 0 {
		o.WriteFrac = 0.1
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.EpochRequests == 0 {
		o.EpochRequests = int64(o.Ingesters*o.Batch*o.BatchesPerRound) / 2
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.ExhaustiveLimit == 0 {
		o.ExhaustiveLimit = 16384
	}
	if o.Samples <= 0 {
		o.Samples = 64
	}
	if o.DeepEvery <= 0 {
		o.DeepEvery = 16
	}
}

// CrashReport is what one sweep measured.
type CrashReport struct {
	Rounds     int   // commit-then-sweep rounds completed
	Commits    int   // snapshots durably committed
	Crashes    int   // injected crashes (torn writes + structural points)
	Deep       int   // crashes followed by a full restore-and-compare
	Exhaustive bool  // every byte offset of the image was swept each round
	ImageBytes int64 // last committed image size
	// Pending counts the round commits cut while an epoch pass was in
	// flight, whose recoveries must adopt it on the source's call.
	Pending int
}

// fingerprint is the quiescent observable state of the cluster at a
// commit point — everything a correct recovery must reproduce exactly.
type fingerprint struct {
	seq     uint64
	stats   serve.Stats
	edge    []int64
	service []int64
	copies  [][]tree.NodeID
}

func takeFingerprint(c *serve.Cluster, seq uint64, objects int) *fingerprint {
	fp := &fingerprint{
		seq:     seq,
		stats:   c.Stats(),
		edge:    c.EdgeLoad(),
		service: c.ServiceLoad(),
		copies:  make([][]tree.NodeID, objects),
	}
	for x := 0; x < objects; x++ {
		fp.copies[x] = c.Copies(x)
	}
	return fp
}

// verifyRestore checks a recovered cluster against the commit-point
// fingerprint and the conservation invariants carried inside the image.
func verifyRestore(r *serve.Cluster, fp *fingerprint, label string) error {
	if got := r.SnapshotSeq(); got != fp.seq {
		return fmt.Errorf("%s: recovered generation %d, want %d", label, got, fp.seq)
	}
	st := r.Stats()
	if st != fp.stats {
		return fmt.Errorf("%s: stats differ:\n  got  %+v\n  want %+v", label, st, fp.stats)
	}
	if !reflect.DeepEqual(r.EdgeLoad(), fp.edge) {
		return fmt.Errorf("%s: edge loads differ", label)
	}
	service := r.ServiceLoad()
	if !reflect.DeepEqual(service, fp.service) {
		return fmt.Errorf("%s: service loads differ", label)
	}
	// The PR 5/6 conservation ledger must close inside the restored image
	// alone: summed service load plus everything dropped with removed
	// hardware equals the total cost ever returned by Ingest.
	var sum int64
	for _, l := range service {
		sum += l
	}
	if sum+st.DroppedServiceLoad != st.ServiceCost {
		return fmt.Errorf("%s: ledger open: service %d + dropped %d != cost %d",
			label, sum, st.DroppedServiceLoad, st.ServiceCost)
	}
	for x := range fp.copies {
		if !reflect.DeepEqual(r.Copies(x), fp.copies[x]) {
			return fmt.Errorf("%s: object %d copies differ: %v vs %v", label, x, r.Copies(x), fp.copies[x])
		}
	}
	return nil
}

// CrashSweep proves snapshot durability under deterministic crash-point
// injection with ingesters running. Each round: quiesce briefly to commit
// a snapshot and fingerprint the cluster (each warm-up ends on an epoch
// boundary, so without a reconfiguration the commit is cut while the
// pass that boundary started is in flight, spread over the next Ingest
// calls); verify two independent restores of that image serve an
// identical trace suffix bit-for-bit, adopting that pass on the same
// call; then, with
// concurrent ingesters hammering the cluster, inject a torn write at
// every byte offset of the image (seeded sampling above ExhaustiveLimit)
// plus the two structural crash points (before and between the renames),
// and after the crash between the renames, which leaves the committed
// generation only in path.prev, a torn write and a crash before rename
// once more, asserting after every single crash that recovery still lands
// on the committed generation with stats, loads, placements and the PR
// 5/6 conservation ledger intact. Round zero separately proves the cold
// story: crashes before any commit leave ErrNoSnapshot, never a torn
// half-state. A last phase damages the primary after the final commit:
// the restore falls back to path.prev, and a crash between the renames of
// the restored cluster's first snapshot must still leave path.prev.
//
// Everything file-related happens under dir; a non-nil error is an
// invariant violation or hard failure, formatted to reproduce with the
// same (dir layout, CrashOptions).
func CrashSweep(dir string, o CrashOptions) (*CrashReport, error) {
	o.defaults()
	rep := &CrashReport{}
	path := filepath.Join(dir, "cluster.hbn")

	tr := tree.SCICluster(3, 4, 32, 16)
	leaves := tr.Leaves()
	c, err := serve.NewCluster(tr, o.Objects, serve.Options{
		Shards:        o.Shards,
		EpochRequests: o.EpochRequests,
		Threshold:     o.Threshold,
		Parallelism:   2, // keep scheduler pressure bounded under -race
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer c.Close()

	mkBatch := func(rng *rand.Rand, batch []serve.Request) {
		for i := range batch {
			batch[i] = serve.Request{
				Object: rng.Intn(o.Objects),
				Node:   leaves[rng.Intn(len(leaves))],
				Write:  rng.Float64() < o.WriteFrac,
			}
		}
	}
	ingestRound := func(round int, fail func(error)) *sync.WaitGroup {
		var wg sync.WaitGroup
		for g := 0; g < o.Ingesters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(o.Seed + int64(round)*7_654_321 + int64(g)*1_000_003))
				batch := make([]serve.Request, o.Batch)
				for b := 0; b < o.BatchesPerRound; b++ {
					mkBatch(rng, batch)
					if _, err := c.Ingest(batch); err != nil {
						fail(fmt.Errorf("chaos: round %d ingester %d: %w", round, g, err))
						return
					}
				}
			}(g)
		}
		return &wg
	}

	// crash injects one crashing snapshot attempt and verifies recovery
	// against the current fingerprint (nil = nothing committed yet, so
	// recovery must report ErrNoSnapshot).
	var committed []byte // the committed image's exact bytes
	committedAt := path  // where they are: path.prev after a crash between the renames
	crash := func(opts snapshot.SaveOptions, fp *fingerprint, deep bool, label string) error {
		_, err := c.SnapshotWith(path, opts)
		if !errors.Is(err, snapshot.ErrInjectedCrash) {
			return fmt.Errorf("chaos: %s: got %v, want ErrInjectedCrash", label, err)
		}
		rep.Crashes++
		if fp == nil {
			if _, _, err := serve.Restore(path, serve.RestoreOptions{}); !errors.Is(err, snapshot.ErrNoSnapshot) {
				return fmt.Errorf("chaos: %s: cold recovery got %v, want ErrNoSnapshot", label, err)
			}
			return nil
		}
		if opts.Crash == snapshot.CrashDuringWrite || opts.Crash == snapshot.CrashBeforeRename {
			// The committed generation's file must be untouched by the
			// crashed attempt — the torn bytes live only in the temp file.
			data, err := os.ReadFile(committedAt)
			if err != nil || !bytes.Equal(data, committed) {
				return fmt.Errorf("chaos: %s: committed generation mutated by crashed attempt (err %v)", label, err)
			}
		}
		if !deep {
			st, _, err := snapshot.ReadLadder(path)
			if err != nil || st.Seq != fp.seq {
				return fmt.Errorf("chaos: %s: ladder got seq %d err %v, want %d", label, st.Seq, err, fp.seq)
			}
			return nil
		}
		rep.Deep++
		r, info, err := serve.Restore(path, serve.RestoreOptions{Parallelism: 2})
		if err != nil {
			return fmt.Errorf("chaos: %s: restore: %w", label, err)
		}
		defer r.Close()
		if info.Seq != fp.seq {
			return fmt.Errorf("chaos: %s: restored seq %d, want %d", label, info.Seq, fp.seq)
		}
		if (opts.Crash == snapshot.CrashBetweenRenames || committedAt != path) && !info.Fallback {
			return fmt.Errorf("chaos: %s: expected fallback to the retained generation", label)
		}
		return verifyRestore(r, fp, "chaos: "+label)
	}

	// offsets to sweep for a size-byte image.
	sweepOffsets := func(rng *rand.Rand, size int64) []int64 {
		if size <= o.ExhaustiveLimit {
			rep.Exhaustive = true
			out := make([]int64, 0, size+2)
			for off := int64(0); off <= size; off++ {
				out = append(out, off)
			}
			return append(out, size+17) // cut past the end: full bytes, no fsync
		}
		rep.Exhaustive = false
		out := []int64{0, 1, 19, size / 2, size - 1, size, size + 17}
		for i := 0; i < o.Samples; i++ {
			out = append(out, 1+rng.Int63n(size-1))
		}
		return out
	}

	// Round zero: the cold story. Nothing committed — every crash point
	// must leave a recoverable "no snapshot" state, and a cold cluster
	// must still come up from nothing.
	for _, off := range []int64{0, 1, 7} {
		if err := crash(snapshot.SaveOptions{Crash: snapshot.CrashDuringWrite, CrashAfter: off}, nil,
			false, fmt.Sprintf("cold torn write at %d", off)); err != nil {
			return rep, err
		}
	}
	if err := crash(snapshot.SaveOptions{Crash: snapshot.CrashBeforeRename}, nil, false, "cold crash before rename"); err != nil {
		return rep, err
	}

	rng := rand.New(rand.NewSource(o.Seed ^ 0x0ff5e75))
	var fp *fingerprint
	for round := 1; round <= o.Rounds; round++ {
		// Feed the round's first half quiescently so the commit has fresh
		// state to capture, then commit and fingerprint.
		var warmErr atomic.Value
		warm := ingestRound(round*2-1, func(err error) { warmErr.Store(err) })
		warm.Wait()
		if err, _ := warmErr.Load().(error); err != nil {
			return rep, err
		}
		if o.Reconfigs {
			if _, err := c.Reconfigure(topo.Diff{}); err != nil {
				return rep, fmt.Errorf("chaos: round %d identity reconfigure: %w", round, err)
			}
		}
		ss, err := c.Snapshot(path)
		if err != nil {
			return rep, fmt.Errorf("chaos: round %d commit: %w", round, err)
		}
		rep.Commits++
		rep.ImageBytes = ss.Bytes
		if committed, err = os.ReadFile(path); err != nil {
			return rep, fmt.Errorf("chaos: round %d: %w", round, err)
		}
		if st, err := snapshot.Decode(committed); err != nil {
			return rep, fmt.Errorf("chaos: round %d: %w", round, err)
		} else if st.Pending.Calls > 0 {
			rep.Pending++
		}
		committedAt = path
		fp = takeFingerprint(c, ss.Seq, o.Objects)
		if err := suffixBitIdentity(path, o, round); err != nil {
			return rep, err
		}

		// The sweep proper: ingesters hammer the cluster while every crash
		// point fires against the live write path.
		var (
			mu   sync.Mutex
			errs []error
		)
		fail := func(err error) { mu.Lock(); errs = append(errs, err); mu.Unlock() }
		var stop atomic.Bool
		live := ingestRound(round*2, func(err error) { fail(err); stop.Store(true) })
		offs := sweepOffsets(rng, ss.Bytes)
		for i, off := range offs {
			if stop.Load() {
				break
			}
			deep := i%o.DeepEvery == 0 || off <= 1 || off >= ss.Bytes-1
			if err := crash(snapshot.SaveOptions{Crash: snapshot.CrashDuringWrite, CrashAfter: off}, fp,
				deep, fmt.Sprintf("round %d torn write at %d/%d", round, off, ss.Bytes)); err != nil {
				fail(err)
				break
			}
		}
		if !stop.Load() {
			if err := crash(snapshot.SaveOptions{Crash: snapshot.CrashBeforeRename}, fp, true,
				fmt.Sprintf("round %d crash before rename", round)); err != nil {
				fail(err)
			}
		}
		if !stop.Load() && len(errs) == 0 {
			// The between-renames point retires the primary: recovery must
			// fall back to the retained generation, the only one left, and
			// the writes after it must leave that file alone. Last in the
			// round — the next commit heals the ladder.
			err := crash(snapshot.SaveOptions{Crash: snapshot.CrashBetweenRenames}, fp, true,
				fmt.Sprintf("round %d crash between renames", round))
			if err != nil {
				fail(err)
			}
			committedAt = snapshot.PrevPath(path)
			for _, after := range []struct {
				opts  snapshot.SaveOptions
				label string
			}{
				{snapshot.SaveOptions{Crash: snapshot.CrashDuringWrite, CrashAfter: ss.Bytes / 2}, "torn write"},
				{snapshot.SaveOptions{Crash: snapshot.CrashBeforeRename}, "crash before rename"},
			} {
				if err != nil {
					break
				}
				if err = crash(after.opts, fp, true, fmt.Sprintf("round %d %s after a crash between renames", round, after.label)); err != nil {
					fail(err)
				}
			}
		}
		live.Wait()
		if len(errs) > 0 {
			return rep, errs[0]
		}
		rep.Rounds++
	}

	// Final commit heals the ladder and must round-trip exactly. The last
	// round's commit, fp, stays behind it in path.prev.
	if err := c.ResolveNow(); err != nil {
		return rep, fmt.Errorf("chaos: final resolve: %w", err)
	}
	ss, err := c.Snapshot(path)
	if err != nil {
		return rep, fmt.Errorf("chaos: final commit: %w", err)
	}
	rep.Commits++
	rep.ImageBytes = ss.Bytes
	r, info, err := serve.Restore(path, serve.RestoreOptions{Parallelism: 2})
	if err != nil {
		return rep, fmt.Errorf("chaos: final restore: %w", err)
	}
	defer r.Close()
	if info.Fallback {
		return rep, fmt.Errorf("chaos: final restore fell back after a clean commit")
	}
	if err := verifyRestore(r, takeFingerprint(c, ss.Seq, o.Objects), "chaos: final restore"); err != nil {
		return rep, err
	}
	if fp != nil {
		return rep, damagedPrimary(path, fp, rep)
	}
	return rep, nil
}

// damagedPrimary flips one bit of the primary at path, whose retained
// generation holds fp: the restore must fall back to it, and a crash
// between the renames of the restored cluster's first snapshot must leave
// it recoverable, so a second restore lands on it again.
func damagedPrimary(path string, fp *fingerprint, rep *CrashReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("chaos: damaged primary: %w", err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("chaos: damaged primary: %w", err)
	}
	restore := func(label string) (*serve.Cluster, error) {
		r, info, err := serve.Restore(path, serve.RestoreOptions{Parallelism: 2})
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: restore: %w", label, err)
		}
		if !info.Fallback || info.Seq != fp.seq {
			r.Close()
			return nil, fmt.Errorf("chaos: %s: restored seq %d (fallback %v), want seq %d from the retained generation", label, info.Seq, info.Fallback, fp.seq)
		}
		rep.Deep++
		if err := verifyRestore(r, fp, "chaos: "+label); err != nil {
			r.Close()
			return nil, err
		}
		return r, nil
	}
	r, err := restore("restore past a damaged primary")
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := r.SnapshotWith(path, snapshot.SaveOptions{Crash: snapshot.CrashBetweenRenames}); !errors.Is(err, snapshot.ErrInjectedCrash) {
		return fmt.Errorf("chaos: damaged primary: got %v, want ErrInjectedCrash", err)
	}
	rep.Crashes++
	again, err := restore("crash between the renames over a damaged primary")
	if err != nil {
		return err
	}
	return again.Close()
}

// suffixBitIdentity restores the committed image twice and drives both
// recovered clusters through an identical trace suffix: their states must
// stay bit-identical the whole way — pinned the strongest way available,
// by comparing the byte images of their own snapshots.
func suffixBitIdentity(path string, o CrashOptions, round int) error {
	a, _, err := serve.Restore(path, serve.RestoreOptions{Parallelism: 2})
	if err != nil {
		return fmt.Errorf("chaos: round %d twin restore a: %w", round, err)
	}
	defer a.Close()
	b, _, err := serve.Restore(path, serve.RestoreOptions{Parallelism: 2})
	if err != nil {
		return fmt.Errorf("chaos: round %d twin restore b: %w", round, err)
	}
	defer b.Close()

	// A pass in flight at the cut is in flight in each recovery: its own
	// image records it as the committed one did.
	committed, err := snapshot.ReadFile(path)
	if err != nil {
		return err
	}
	for _, r := range []*serve.Cluster{a, b} {
		again := filepath.Join(filepath.Dir(path), "twin-cut.hbn")
		if _, err := r.Snapshot(again); err != nil {
			return err
		}
		if st, err := snapshot.ReadFile(again); err != nil {
			return err
		} else if st.Pending != committed.Pending {
			return fmt.Errorf("chaos: round %d: recovered pass in flight %+v, committed %+v", round, st.Pending, committed.Pending)
		}
	}

	leaves := a.Tree().Leaves()
	rng := rand.New(rand.NewSource(o.Seed + int64(round)*31337))
	batch := make([]serve.Request, o.Batch)
	for n := 0; n < 4; n++ {
		for i := range batch {
			batch[i] = serve.Request{
				Object: rng.Intn(o.Objects),
				Node:   leaves[rng.Intn(len(leaves))],
				Write:  rng.Float64() < o.WriteFrac,
			}
		}
		ca, erra := a.Ingest(batch)
		cb, errb := b.Ingest(batch)
		if erra != nil || errb != nil {
			return fmt.Errorf("chaos: round %d twin ingest: %v / %v", round, erra, errb)
		}
		if ca != cb {
			return fmt.Errorf("chaos: round %d twin batch %d: cost %d vs %d", round, n, ca, cb)
		}
	}
	if err := a.ResolveNow(); err != nil {
		return err
	}
	if err := b.ResolveNow(); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	pa, pb := filepath.Join(dir, "twin-a.hbn"), filepath.Join(dir, "twin-b.hbn")
	if _, err := a.Snapshot(pa); err != nil {
		return err
	}
	if _, err := b.Snapshot(pb); err != nil {
		return err
	}
	ia, err := canonicalImage(pa)
	if err != nil {
		return err
	}
	ib, err := canonicalImage(pb)
	if err != nil {
		return err
	}
	if !bytes.Equal(ia, ib) {
		return fmt.Errorf("chaos: round %d: twin restores diverged (%d vs %d byte images)", round, len(ia), len(ib))
	}
	return nil
}

// canonicalImage reads a snapshot image and re-encodes it with the
// wall-clock resolve durations blanked — the only fields legitimately
// allowed to differ between two clusters that are otherwise bit-identical.
func canonicalImage(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	st.ResolveTimeNs = 0
	for i := range st.EpochLog {
		st.EpochLog[i].ResolveNs = 0
	}
	return snapshot.Encode(st), nil
}
