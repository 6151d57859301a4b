// Package snapshot is the durability layer: a versioned, length-prefixed,
// CRC-checksummed binary image of full cluster state (topology, per-object
// copy sets, observed frequencies, per-shard load accounts and drift
// queues, epoch counters, solver arming state), written crash-consistently
// and recovered through a generation ladder.
//
// # File format
//
// A snapshot file is
//
//	magic   8 bytes  "HBNSNAP1"
//	version u32 LE   3 (Encode writes only 3; Decode reads 3 and 2, and
//	                 rejects every other version with ErrCorrupt)
//	bodyLen u64 LE   length of body in bytes
//	body    bodyLen  varint-packed sections (see codec.go)
//	crc     u32 LE   CRC-32 (IEEE) of body
//
// The body stores each fact once: the options and counters, the tree,
// the solver's frequency view (SolverW), the recorded counts as of each
// object's last fold (PrevW) and the epoch log; per shard its load
// accounts, the counts its objects recorded since their last fold
// (TrackerW − PrevW) and its drift queue; per object a presence byte, the
// copy list in list order, the live read counters and the write streak.
// Nearest tables, anchors and modes are derived from the copy list on
// restore (dynamic.RestoreObject). Version 2 images still decode: their
// cumulative tracker counts must not fall below PrevW, and their tables,
// anchors, mode bits, decay-shift slot and flag bit 0 are checked and
// dropped, so one re-encodes as v3.
//
// Torn writes are detected by the length prefix (the file is shorter than
// the header promises), bit flips by the checksum, and hostile or
// garbage input by the magic/version check plus per-field validation in
// the body decoder, which caps every count before trusting it (a count of
// N elements is rejected unless at least N bytes of body remain, and
// workload dimensions are bounded exactly as workload.Decode bounds
// them), so Decode never panics on corrupt data. The one allocation that
// can outgrow the input is the three dense frequency tables: objects ×
// nodes × 16 B each, with objects at most the body's length and objects ×
// nodes at most 2^26 cells.
//
// # Crash consistency
//
// WriteFile never touches the current generation in place. It keeps two
// committed generations, path and path.prev:
//
//  1. open the temp file path.tmp: the recycled path.prev, renamed to
//     path.tmp, when the image's Encoder committed the image at path
//     (Image.WriteFile) and path still exists; otherwise a fresh file,
//     leaving path.prev alone
//  2. cut path.tmp to the image's length, write the image over it, fsync
//  3. rename path → path.prev (keeping the previous good generation)
//  4. rename path.tmp → path
//  5. fsync the directory
//
// A recycled write frees no inode and allocates none, since both renames
// move a file to a free name, and it reuses the recycled file's blocks up
// to that file's old length. The one cost: while it is in flight (from
// step 1 to step 4), the generation before the newest is being
// overwritten, so the ladder holds one committed generation, path,
// instead of two, and that one must read back. So an image recycles only
// behind the image its Encoder last committed at path. The first write
// after a restart (in particular after a restore that fell back to
// path.prev because path did not verify), every write while path is
// missing (after a crash between the renames, when path.prev may be the
// only committed generation) and WriteFile of a slice use a fresh temp
// file.
//
// A crash anywhere before step 3 leaves path untouched; a crash between
// the renames leaves the newest committed generation intact under
// path.prev. Recovery (ReadLadder) tries path, then path.prev, and only
// then gives up with a typed error — the caller's cold-solve fallback. It
// never reads path.tmp, so an image whose renames did not happen is never
// recovered. So no single-point failure during a snapshot loses the last
// generation that verifies, with one exception that recycling does not
// touch: when path itself does not verify, step 3 retires it over the
// good path.prev, and a crash before step 4 then leaves no usable
// generation.
//
// # Fault injection
//
// SaveOptions carries deterministic crash points for the chaos harness: a
// crashWriter cuts the byte stream at any chosen offset mid-write
// (simulating a torn write: everything before the cut reaches the file,
// nothing after, and no fsync happens), and the two structural points
// crash between the durability steps. Injected crashes return
// ErrInjectedCrash and leave the file system exactly as a real kill at
// that point would.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"hbn/internal/dynamic"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Typed errors. All integrity failures (bad magic, bad version, length
// mismatch, checksum mismatch, malformed or out-of-range body fields)
// wrap ErrCorrupt, so recovery code needs exactly two errors.Is checks:
// ErrNoSnapshot means "nothing was ever written here" (a genuinely fresh
// start), ErrCorrupt means "something was written and none of it is
// usable" (fall back to a cold solve, and worry).
var (
	ErrCorrupt       = errors.New("snapshot: corrupt snapshot")
	ErrNoSnapshot    = errors.New("snapshot: no snapshot")
	ErrInjectedCrash = errors.New("snapshot: injected crash")
)

// corrupt wraps ErrCorrupt with context.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// State is the full serializable cluster image. The serving layer's cut
// encodes one whose tables and slices are its live state, under its write
// gate (serve.Cluster.Snapshot, through Encoder.Encode), and rebuilds a
// warm cluster from a decoded one (serve.Restore); restore takes
// ownership of the slices and workloads, so a decoded State must not be
// reused afterwards.
type State struct {
	// Seq is the monotone snapshot sequence number of the source cluster —
	// the generation identity the crash harness asserts restores land on.
	Seq uint64

	// Tree is the topology at the cut (immutable; the image holds its
	// tree.Encode bytes, which the tree computes once).
	Tree       *tree.Tree
	NumObjects int

	// Pinned semantic options: a restored cluster must reproduce the
	// original's serving decisions bit-for-bit, so everything that affects
	// them travels in the snapshot. (Parallelism affects only scheduling,
	// never results, and is chosen at restore time.)
	EpochRequests int64
	Threshold     int
	// v2 options: the per-edge replication budgets, the write-contraction
	// budget and the drift trigger change serving decisions, so they are
	// pinned like Threshold.
	BandwidthAware     bool
	WriteBudget        int
	DriftThreshold     float64
	DriftCheckRequests int64

	// Epoch machinery at the cut.
	Solved             bool // the solver was armed (restore re-arms it)
	Served             int64
	Epochs             int64
	DriftEpochs        int64
	Reconfigs          int64
	DriftedTotal       int64
	AdoptMoved         int64
	ResolveTimeNs      int64
	DroppedLoad        int64
	DroppedServiceLoad int64
	EpochLog           []EpochRec
	SolverW            *workload.W // the solver's folded frequency view
	// PrevW is TrackerW's rows as of each object's last fold, so TrackerW
	// >= PrevW holds cell by cell (the image stores the difference, and
	// the encoder panics on a violation).
	PrevW *workload.W
	// TrackerW is the observed-frequency table every shard records into.
	// Shard i records only the objects it owns (x ≡ i mod the shard
	// count), and the image stores each shard's rows in that shard's
	// section, so a cell in another shard's rows is corrupt.
	TrackerW *workload.W

	// Per-shard serving state; the shard count is len(ShardStates), at
	// least 1 (Decode rejects an image with none).
	ShardStates []ShardState
	// Objects holds every object's strategy state, indexed globally
	// (object x belongs to shard x % len(ShardStates)).
	Objects []dynamic.ObjectState
}

// EpochRec records one epoch pass, for per-epoch comparison against the
// clairvoyant static optimum. It is the serving layer's epoch log entry
// (serve.EpochStat is this type), so the log goes into the image and
// comes back from it as it is.
type EpochRec struct {
	// Epoch numbers passes from 1.
	Epoch int64
	// Requests is the total served when the pass started.
	Requests int64
	// Drifted is the number of objects re-solved in this pass.
	Drifted int
	// Moved is the adoption movement distance of this pass.
	Moved int64
	// StaticCongestion is the solver's congestion on its current view of
	// the observed frequencies: an exponentially aged window, halved once
	// per pass for every drifted object. It describes recent traffic, not
	// the whole trace, so it is never comparable to the clairvoyant
	// StaticOffline comparator, which scores the cumulative counts.
	StaticCongestion float64
	// MaxEdgeLoad is the cluster's served max edge load after adoption.
	MaxEdgeLoad int64
	// ResolveNs is the wall time of the whole pass: the drift fold, the
	// Solve/Resolve call, adoption and the max-edge-load fold (despite the
	// name, not the solver call alone).
	ResolveNs int64
	// Trigger records what fired the pass: "cadence" (EpochRequests),
	// "drift" (the drift-magnitude trigger), or "manual" (ResolveNow and
	// reconfiguration passes). The image encodes it as a validated byte.
	Trigger string
	// DriftMagnitude is the measured drift at the start of the pass (the
	// request-weighted mean L1 distance described at
	// serve.Options.DriftThreshold), regardless of what triggered it; 0
	// when no traffic has drifted since the last adoption.
	DriftMagnitude float64
}

// ShardState is one shard's non-per-object state.
type ShardState struct {
	EdgeLoad []int64 // per-edge total loads (len = tree.NumEdges())
	MoveLoad []int64 // per-edge movement account (MoveLoad[e] <= EdgeLoad[e])
	Requests int64
	Cost     int64
	Drift    []int // un-drained drifted objects, in first-touch order
}

// CrashPoint selects a deterministic injected crash for WriteFile.
type CrashPoint int

const (
	// CrashNone writes normally.
	CrashNone CrashPoint = iota
	// CrashDuringWrite cuts the temp-file stream after SaveOptions.CrashAfter
	// bytes and skips fsync and both renames — a torn write. An offset at or
	// past the end of the image still crashes (after the write, before the
	// fsync), so an injected crash never commits.
	CrashDuringWrite
	// CrashBeforeRename completes the temp write and fsync, then crashes
	// before either rename.
	CrashBeforeRename
	// CrashBetweenRenames crashes after the current generation moved to
	// path.prev but before the temp file took its place — the torn window
	// the generation ladder exists for.
	CrashBetweenRenames
)

// SaveOptions tune WriteFile. The zero value writes normally.
type SaveOptions struct {
	// Crash injects a deterministic crash (see CrashPoint); the call
	// returns ErrInjectedCrash and leaves the file system exactly as a
	// process kill at that point would.
	Crash CrashPoint
	// CrashAfter is the byte offset CrashDuringWrite cuts the stream at.
	CrashAfter int64
	// BeforeWrite, when set, runs once before the first byte reaches the
	// temp file. It is a test seam: the serving layer calls WriteFile
	// after releasing its ingest gate, so a hook that ingests must succeed
	// — which is exactly how TestSnapshotStall proves the disk write
	// happens outside the gate.
	BeforeWrite func()
}

// crashWriter cuts the byte stream after left bytes, simulating a process
// kill mid-write: everything before the cut reaches the underlying
// writer, nothing after, and the caller must not fsync or rename.
type crashWriter struct {
	w    io.Writer
	left int64
}

func (cw *crashWriter) Write(p []byte) (int, error) {
	if int64(len(p)) <= cw.left {
		cw.left -= int64(len(p))
		return cw.w.Write(p)
	}
	n := int(cw.left)
	cw.left = 0
	if n > 0 {
		if m, err := cw.w.Write(p[:n]); err != nil {
			return m, err
		}
	}
	return n, ErrInjectedCrash
}

// PrevPath returns the previous-generation path WriteFile retains
// (path + ".prev").
func PrevPath(path string) string { return path + ".prev" }

// tmpPath is the in-progress temp file WriteFile builds the image in.
func tmpPath(path string) string { return path + ".tmp" }

// WriteFile writes an already encoded snapshot image crash-consistently,
// with the previous generation kept at PrevPath(path), into a fresh temp
// file. See the package comment for the protocol and the crash points
// SaveOptions can inject.
func WriteFile(path string, data []byte, opts SaveOptions) error {
	return writeFile(path, bytes.NewReader(data), int64(len(data)), opts, false)
}

// WriteFile writes the image as the package's WriteFile writes a slice,
// piece by piece, with no copy of the image assembled first. Once the
// image's Encoder has committed an image at path, and path still holds a
// generation, the temp file is the recycled PrevPath(path) (see the
// package comment).
func (im *Image) WriteFile(path string, opts SaveOptions) error {
	err := writeFile(path, im, int64(im.Len()), opts, im.en.committed == path)
	if err == nil {
		im.en.committed = path
	}
	return err
}

// writeFile writes size bytes of img to path by the package comment's
// protocol. recycle allows it to overwrite PrevPath(path) when path
// exists; the caller grants it only when path holds an image it
// committed itself.
func writeFile(path string, img io.WriterTo, size int64, opts SaveOptions, recycle bool) error {
	if opts.BeforeWrite != nil {
		opts.BeforeWrite()
	}
	_, err := os.Stat(path)
	committed := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("snapshot: stat %s: %w", path, err)
	}
	tmp := tmpPath(path)
	f, err := openTemp(tmp, PrevPath(path), recycle && committed)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: truncate %s: %w", tmp, err)
	}
	var w io.Writer = f
	if opts.Crash == CrashDuringWrite {
		w = &crashWriter{w: f, left: opts.CrashAfter}
	}
	if _, err := img.WriteTo(w); err != nil {
		f.Close() // a real crash would not close either; Close without Sync leaves the same torn bytes
		if errors.Is(err, ErrInjectedCrash) {
			return fmt.Errorf("%w: torn write at byte %d of %d", ErrInjectedCrash, opts.CrashAfter, size)
		}
		return fmt.Errorf("snapshot: write %s: %w", tmp, err)
	}
	if opts.Crash == CrashDuringWrite {
		// The cut offset was at or past the image end: the bytes are all
		// there but the crash still precedes fsync and rename, so the
		// attempt must not commit.
		f.Close()
		return fmt.Errorf("%w: torn write at byte %d of %d", ErrInjectedCrash, size, size)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmp, err)
	}
	if opts.Crash == CrashBeforeRename {
		return fmt.Errorf("%w: before rename", ErrInjectedCrash)
	}
	// Keep the previous good generation: path → path.prev. A missing path
	// (first snapshot, or a previous crash between the renames) skips this.
	if committed {
		if err := os.Rename(path, PrevPath(path)); err != nil {
			return fmt.Errorf("snapshot: retire %s: %w", path, err)
		}
	}
	if opts.Crash == CrashBetweenRenames {
		return fmt.Errorf("%w: between renames", ErrInjectedCrash)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: install %s: %w", path, err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// openTemp opens the temp file an image is written into. With recycle
// set, the generation before the one at path, at prev, is renamed to the
// temp name to be overwritten in place, so the write allocates no inode
// and the renames after it free none. Otherwise (or when prev is missing)
// a fresh file is created and prev is left alone: it may be the only
// usable generation.
func openTemp(tmp, prev string, recycle bool) (*os.File, error) {
	if recycle {
		err := os.Rename(prev, tmp)
		if err == nil {
			return os.OpenFile(tmp, os.O_WRONLY, 0)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	return os.Create(tmp)
}

// syncDir fsyncs a directory so the renames are durable; best-effort
// because not every platform or file system supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// ReadFile loads and verifies one snapshot file. Missing files return an
// error satisfying errors.Is(err, fs.ErrNotExist); damaged ones wrap
// ErrCorrupt.
func ReadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// ReadLadder recovers the newest usable generation: path first, then
// PrevPath(path). It returns the state and the file it came from. When
// neither file exists the error wraps ErrNoSnapshot; when at least one
// exists but none verifies, it wraps ErrCorrupt — the caller's signal to
// fall back to a cold solve.
func ReadLadder(path string) (*State, string, error) {
	st, err := ReadFile(path)
	if err == nil {
		return st, path, nil
	}
	prev := PrevPath(path)
	pst, perr := ReadFile(prev)
	if perr == nil {
		return pst, prev, nil
	}
	if errors.Is(err, fs.ErrNotExist) && errors.Is(perr, fs.ErrNotExist) {
		return nil, "", fmt.Errorf("%w at %s", ErrNoSnapshot, path)
	}
	return nil, "", fmt.Errorf("%w: no usable generation (%s: %v; %s: %v)", ErrCorrupt, path, err, prev, perr)
}
