package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hbn/internal/dynamic"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// mkState hand-builds a state that exercises every section of the codec:
// sparse workloads (TrackerW at or above its last-fold rows), an epoch log, two shards
// with loads and drift queues, and absent, single-copy and multi-copy
// objects.
func mkState(seq uint64) *State {
	tr := tree.SCICluster(2, 3, 16, 8)
	n, ne := tr.Len(), tr.NumEdges()
	leaves := tr.Leaves()
	const objects = 4

	sw := workload.New(objects, n)
	sw.AddReads(0, leaves[0], 7)
	sw.AddWrites(1, leaves[1], 3)
	sw.AddReads(3, leaves[2], 1)
	pw := workload.New(objects, n)
	pw.AddReads(0, leaves[0], 5)
	tw := workload.New(objects, n) // object 0 is shard 0's, object 1 shard 1's
	tw.AddReads(0, leaves[0], 7)
	tw.AddWrites(1, leaves[1], 3)

	return withPrev(&State{
		Seq:           seq,
		Tree:          tr,
		NumObjects:    objects,
		EpochRequests: 400,
		Threshold:     3,
		// v2 options: all non-default, so the round-trip and the fuzz
		// corpus (seeded from this state) cover the extended image.
		BandwidthAware:     true,
		WriteBudget:        3,
		DriftThreshold:     0.25,
		DriftCheckRequests: 100,
		Solved:             true,
		Served:             1500,
		Epochs:             3,
		DriftEpochs:        1,
		Reconfigs:          1,
		DriftedTotal:       9,
		AdoptMoved:         17,
		ResolveTimeNs:      123456,
		DroppedLoad:        11, DroppedServiceLoad: 7,
		EpochLog: []EpochRec{
			{Epoch: 1, Requests: 400, Drifted: 3, Moved: 6, StaticCongestion: 1.25, MaxEdgeLoad: 40, ResolveNs: 1000,
				Trigger: "cadence"},
			{Epoch: 2, Requests: 800, Drifted: 2, Moved: 0, StaticCongestion: 0.5, MaxEdgeLoad: 55, ResolveNs: 900,
				Trigger: "drift", DriftMagnitude: 0.4},
		},
		SolverW:  sw,
		TrackerW: tw,
		ShardStates: []ShardState{
			{EdgeLoad: seqLoads(ne, 3), MoveLoad: seqLoads(ne, 1), Requests: 700, Cost: 900, Drift: []int{0, 2}},
			{EdgeLoad: seqLoads(ne, 2), MoveLoad: make([]int64, ne), Requests: 800, Cost: 1100, Drift: []int{3}},
		},
		Objects: []dynamic.ObjectState{
			{}, // untouched
			{Present: true, Copies: []tree.NodeID{leaves[0]},
				Counters: []dynamic.EdgeCounter{{Edge: 0, Count: 2}, {Edge: tree.EdgeID(ne - 1), Count: 1}}},
			{Present: true, Copies: []tree.NodeID{leaves[0], leaves[1]}, WriteStreak: 2},
			{Present: true, Copies: []tree.NodeID{leaves[2]}},
		},
	}, pw)
}

// withPrev sets st's since-fold states from prev, TrackerW's rows as of
// each object's last fold, as a cluster's shards keep them: an object
// whose prev row holds a count is marked folded, and a cell whose
// recorded count differs from prev's was touched since, with prev's count
// saved.
func withPrev(st *State, prev *workload.W) *State {
	n := len(st.ShardStates)
	for i := range st.ShardStates {
		st.ShardStates[i].Since = dynamic.NewSinceFold(st.NumObjects, st.Tree.Len(), n)
	}
	for x := 0; x < st.NumObjects; x++ {
		if slices.ContainsFunc(prev.Row(x), func(a workload.Access) bool { return a != (workload.Access{}) }) {
			st.ShardStates[x%n].Since.MarkFolded(x)
		}
		for v, a := range st.TrackerW.Row(x) {
			if p := prev.At(x, tree.NodeID(v)); p != a {
				st.ShardStates[x%n].Since.Touch(x, tree.NodeID(v), p)
			}
		}
	}
	return st
}

// seqLoads builds a deterministic non-negative load vector with every
// entry >= base (so MoveLoad <= EdgeLoad holds between two calls with
// different bases).
func seqLoads(n int, base int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i%4)*base
	}
	return out
}

// Decode(Encode(st)) reproduces the image byte-for-byte: the encoding is
// canonical, so a second encode is the identity on anything Decode
// accepted.
func TestCodecRoundTrip(t *testing.T) {
	data := Encode(mkState(42))
	st, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Seq != 42 || st.NumObjects != 4 || len(st.ShardStates) != 2 || st.Served != 1500 {
		t.Fatalf("decoded meta wrong: %+v", st)
	}
	again := Encode(st)
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(again))
	}
	if st.Tree.Len() != mkState(42).Tree.Len() {
		t.Fatalf("tree size changed")
	}
}

// A state whose recorded count falls below its count as of the last fold
// is a bookkeeping fault, and encoding it panics, as a negative count
// would otherwise be written as a ten-byte varint into an image whose
// checksum verifies but that Decode rejects: both when the last-fold
// count is a saved first-touch count and when it is the row an object
// keeps, and from any worker of a parallel encode.
func TestEncodePanicsBelowLastFold(t *testing.T) {
	below := map[string]func() *State{
		"saved count": func() *State {
			st := mkState(1) // object 0 saved 5 reads at leaves[0], and recorded 7
			st.TrackerW.Row(0)[st.Tree.Leaves()[0]] = workload.Access{Reads: 4}
			return st
		},
		"kept row": func() *State {
			st := mkState(1)
			s, row := st.ShardStates[1].Since, st.TrackerW.Row(1)
			// Object 1 touches every cell, each with a count: more than
			// fit in a row, so the fold leaves it keeping its row.
			for v := range row {
				s.Touch(1, tree.NodeID(v), workload.Access{Reads: 1})
				row[v] = workload.Access{Reads: 2}
			}
			s.Forget([]int{1}, st.TrackerW)
			s.Touch(1, 0, workload.Access{})
			row[0] = workload.Access{Reads: 1}
			return st
		},
	}
	for name, mk := range below {
		for _, workers := range []int{1, 2} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "below its last-fold count") {
						t.Errorf("%s, %d workers: encode recovered %v, want a below-last-fold panic", name, workers, r)
					}
				}()
				var e Encoder
				st := mk()
				e.Encode(st, workers, func(x int, _ *dynamic.ObjectState) *dynamic.ObjectState { return &st.Objects[x] })
			}()
		}
	}
}

// readGolden reads a file of testdata.
func readGolden(tb testing.TB, file string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// reframe wraps a body in a header of version ver and its checksum.
func reframe(ver uint32, body []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(body)+crcSize)
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[len(magic):], ver)
	binary.LittleEndian.PutUint64(out[len(magic)+4:], uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// optionSlot returns the offset in img's body of the slot after the epoch
// cadence: a v2 image's retired decay-shift slot, or a v3 image's state
// flags byte.
func optionSlot(img []byte) int {
	body := img[headerSize : len(img)-crcSize]
	d := &dec{b: body}
	d.uvarint() // seq
	d.uvarint() // objects
	d.uvarint() // shards
	d.varint()  // threshold
	d.varint()  // epoch cadence
	return len(body) - len(d.b)
}

// withStateFlags returns a copy of a valid image with bits ORed into its
// state flags byte and the checksum recomputed — the image a writer that
// set those bits would have produced.
func withStateFlags(img []byte, bits byte) []byte {
	body := bytes.Clone(img[headerSize : len(img)-crcSize])
	at := optionSlot(img)
	if ver := binary.LittleEndian.Uint32(img[len(magic):]); ver == version2 {
		at++ // the decay-shift slot's one byte
	}
	body[at] |= bits
	return reframe(binary.LittleEndian.Uint32(img[len(magic):]), body)
}

// withDecaySlot returns a copy of a valid v2 image with its retired
// decay-shift slot rewritten to v (< 128, one uvarint byte) and the
// checksum recomputed: v 0 is the full-history image every writer before
// the slot's retirement produced by default.
func withDecaySlot(img []byte, v byte) []byte {
	body := bytes.Clone(img[headerSize : len(img)-crcSize])
	body[optionSlot(img)] = v
	return reframe(version2, body)
}

// withForeignTrackerCell returns a copy of an image of mkState in which
// shard 1's tracker section files its one cell (object 1, 0 reads and 3
// writes at leaves[1]) under object 0, which shard 0 owns, with the
// checksum recomputed.
func withForeignTrackerCell(tb testing.TB, img []byte) []byte {
	leaf := byte(mkState(0).Tree.Leaves()[1])
	// The section's cell count, its cell, then the shard's drift queue [3].
	section := []byte{1, 1, leaf, 0, 3, 1, 3}
	out := bytes.Clone(img)
	body := out[headerSize : len(out)-crcSize]
	if n := bytes.Count(body, section); n != 1 {
		tb.Fatalf("shard 1's tracker section occurs %d times in the image, want once", n)
	}
	body[bytes.Index(body, section)+1] = 0
	binary.LittleEndian.PutUint32(out[len(out)-crcSize:], crc32.ChecksumIEEE(body))
	return out
}

// A shard records only the objects it owns, so no cluster writes an
// image whose shard-1 tracker section holds a cell of shard 0's object.
// Decode rejects one: a re-encode would file the cell in shard 0's
// section and differ from its input.
func TestDecodeRejectsForeignTrackerCell(t *testing.T) {
	img := Encode(mkState(3))
	if _, err := Decode(withForeignTrackerCell(t, img)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// The slot after the epoch cadence of a v2 image once held a decay-shift
// option. The v2 golden carries 1 there; any shift up to 63 still decodes
// and re-encodes as the v3 image of the same state, which has no such
// slot, and 64 or more is corrupt as it always was.
func TestDecodeRetiredDecaySlot(t *testing.T) {
	img := readGolden(t, "mkstate3.snap")
	want := Encode(mkState(3))
	if !bytes.Equal(withDecaySlot(img, 1), img) {
		t.Fatal("the v2 golden does not carry 1 in the decay-shift slot")
	}
	for _, v := range []byte{0, 1, 2, 63} {
		st, err := Decode(withDecaySlot(img, v))
		if err != nil {
			t.Fatalf("slot %d: %v", v, err)
		}
		if !bytes.Equal(Encode(st), want) {
			t.Fatalf("slot %d image did not re-encode as the v3 image", v)
		}
	}
	if _, err := Decode(withDecaySlot(img, 64)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("slot 64: got %v, want ErrCorrupt", err)
	}
}

// State flag bit 0 once pinned a per-request serving knob that has since
// been removed. v2 images written with it set still decode, and re-encode
// as v3, which has no such bit: a v3 image carrying it is corrupt, as is
// a bit no writer ever set.
func TestDecodeRetiredFlagBit(t *testing.T) {
	img := readGolden(t, "mkstate3.snap")
	st, err := Decode(withStateFlags(img, 1))
	if err != nil {
		t.Fatalf("bit-0 image: %v", err)
	}
	v3 := Encode(mkState(3))
	if !bytes.Equal(Encode(st), v3) {
		t.Fatal("bit-0 image did not re-encode as the v3 image")
	}
	for name, bad := range map[string][]byte{
		"v2 bit 3": withStateFlags(img, 0x08),
		"v3 bit 0": withStateFlags(v3, 1),
		"v3 bit 3": withStateFlags(v3, 0x08),
	} {
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// A v2 image's object records carry the nearest tables of every
// table-mode object. Decode drops them, so they must be what restore
// derives instead: for each committed v2 image a cluster wrote, every
// stored table equals a BFS of its copy list seeded in list order.
func TestV2TablesAreListRebuilds(t *testing.T) {
	for _, file := range []string{"legacy-v2.snap", "legacy-v2-flag0.snap", "legacy-v2-slot0.snap"} {
		img := readGolden(t, file)
		var copies [][]tree.NodeID
		st, err := Decode(img)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, o := range st.Objects {
			copies = append(copies, o.Copies)
		}
		tables := 0
		_, err = decodeBody(img[headerSize:len(img)-crcSize], version2, func(x int, nearest []tree.NodeID, ndist []int32) {
			tables++
			wantNear, wantDist := listBFS(st.Tree, copies[x])
			for v := range nearest {
				if nearest[v] != wantNear[v] || ndist[v] != wantDist[v] {
					t.Fatalf("%s: object %d node %d: stored (%d, %d), rebuild of %v (%d, %d)",
						file, x, v, nearest[v], ndist[v], copies[x], wantNear[v], wantDist[v])
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if tables == 0 {
			t.Fatalf("%s holds no table-mode object", file)
		}
	}
}

// listBFS is every node's nearest copy and distance by a multi-source BFS
// seeded in list order.
func listBFS(t *tree.Tree, copies []tree.NodeID) ([]tree.NodeID, []int32) {
	nearest := make([]tree.NodeID, t.Len())
	dist := make([]int32, t.Len())
	for i := range dist {
		dist[i] = -1
	}
	queue := slices.Clone(copies)
	for _, v := range copies {
		nearest[v], dist[v] = v, 0
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range t.Adj(v) {
			if dist[h.To] < 0 {
				nearest[h.To], dist[h.To] = nearest[v], dist[v]+1
				queue = append(queue, h.To)
			}
		}
	}
	return nearest, dist
}

// A v2 image whose object count is forged past what its body could hold
// is rejected before the dense frequency tables are allocated: the
// allocation stays below one table of the claimed size.
func TestDecodeForgedObjectCountAllocatesNoTable(t *testing.T) {
	img := readGolden(t, "mkstate3.snap")
	body := img[headerSize : len(img)-crcSize]
	d := &dec{b: body}
	d.uvarint() // seq
	head := len(body) - len(d.b)
	d.uvarint() // objects
	rest := body[len(body)-len(d.b):]
	// Claim nearly as many objects as the body has bytes: the old check,
	// after the tables, was the only one such a count failed.
	objects := len(body) - 32
	forged := reframe(version2, append(binary.AppendUvarint(slices.Clone(body[:head]), uint64(objects)), rest...))
	nodes := mkState(3).Tree.Len()
	table := uint64(objects * nodes * 16)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Decode(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= table {
		t.Fatalf("Decode of a %d-byte image allocated %d B, a table of the claimed %d objects is %d B", len(forged), got, objects, table)
	}
}

// Every truncation of a valid image is rejected with ErrCorrupt — torn
// writes can cut the stream at any byte.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data := Encode(mkState(7))
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

// Every single-bit flip anywhere in the image is rejected: header damage
// by the magic/version/length checks, body damage by the checksum, CRC
// damage by the mismatch itself.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	data := Encode(mkState(7))
	buf := make([]byte, len(data))
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			copy(buf, data)
			buf[i] ^= 1 << bit
			if _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: got %v, want ErrCorrupt", i, bit, err)
			}
		}
	}
}

// A pending-pass record is checked like the epoch log: a pass pending on
// a state with no solved placement, folded after the cut, re-solving more
// objects than the state has, or with an unknown trigger or an
// out-of-range magnitude is corrupt, and a record a v4 writer wrote
// round-trips.
func TestDecodePendingPass(t *testing.T) {
	st, err := Decode(Encode(mkPendingState()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != mkPendingState().Pending {
		t.Fatalf("pending pass %+v, want %+v", st.Pending, mkPendingState().Pending)
	}
	for name, edit := range map[string]func(*State){
		"unsolved":        func(st *State) { st.Solved = false },
		"after the cut":   func(st *State) { st.Pending.Requests = st.Served + 1 },
		"too many drifts": func(st *State) { st.Pending.Drifted = st.NumObjects + 1 },
		"magnitude":       func(st *State) { st.Pending.DriftMagnitude = 2.5 },
	} {
		st := mkPendingState()
		edit(st)
		if _, err := Decode(Encode(st)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	img := Encode(mkPendingState())
	body := bytes.Clone(img[headerSize : len(img)-crcSize])
	// The record ends with the trigger byte and the 8-byte magnitude,
	// before the shard sections; "drift" is code 1.
	rec := append(binary.AppendVarint([]byte{2}, 1400), 3, 1) // calls, requests, drifted, trigger
	at := bytes.Index(body, rec)
	if at < 0 || bytes.Count(body, rec) != 1 {
		t.Fatal("pending-pass record not found once in the image")
	}
	body[at+len(rec)-1] = 9
	if _, err := Decode(reframe(version, body)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown trigger: got %v, want ErrCorrupt", err)
	}
}

// Hostile headers must fail fast without large allocations: the length
// prefix is validated against the actual file size before anything trusts
// it, and section counts are bounded by the bytes that remain.
func TestDecodeRejectsHostileHeaders(t *testing.T) {
	good := Encode(mkState(7))
	huge := make([]byte, len(good))
	copy(huge, good)
	binary.LittleEndian.PutUint64(huge[len(magic)+4:], 1<<60) // forged bodyLen

	badVersion := make([]byte, len(good))
	copy(badVersion, good)
	binary.LittleEndian.PutUint32(badVersion[len(magic):], 99)

	// The version check is exact, not a ceiling: a v1 header on an image
	// that carries v2 fields must be refused, because a v1-shaped read of
	// a v2 body would silently misparse the option block.
	oldVersion := make([]byte, len(good))
	copy(oldVersion, good)
	binary.LittleEndian.PutUint32(oldVersion[len(magic):], 1)

	cases := map[string][]byte{
		"empty":          {},
		"short":          good[:headerSize+crcSize-1],
		"bad magic":      append([]byte("NOTASNAP"), good[len(magic):]...),
		"forged length":  huge,
		"future version": badVersion,
		"past version":   oldVersion,
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// WriteFile's crash points leave the file system exactly as a kill at
// that instant would, and ReadLadder always recovers the last durable
// generation.
func TestWriteFileCrashSemantics(t *testing.T) {
	newDir := func() (dir, path string) {
		dir = t.TempDir()
		return dir, filepath.Join(dir, "snap.hbn")
	}

	t.Run("during write, no prior generation", func(t *testing.T) {
		_, path := newDir()
		img := Encode(mkState(1))
		for _, cut := range []int64{0, 1, int64(len(img) / 2), int64(len(img) - 1), int64(len(img)), int64(len(img)) + 50} {
			err := WriteFile(path, img, SaveOptions{Crash: CrashDuringWrite, CrashAfter: cut})
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("cut %d: got %v, want ErrInjectedCrash", cut, err)
			}
			if _, _, err := ReadLadder(path); !errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("cut %d: ladder got %v, want ErrNoSnapshot", cut, err)
			}
		}
	})

	t.Run("during write, prior generation survives", func(t *testing.T) {
		_, path := newDir()
		if err := WriteFile(path, Encode(mkState(1)), SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		img2 := Encode(mkState(2))
		for _, cut := range []int64{0, int64(len(img2) / 3), int64(len(img2))} {
			if err := WriteFile(path, img2, SaveOptions{Crash: CrashDuringWrite, CrashAfter: cut}); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			st, from, err := ReadLadder(path)
			if err != nil || st.Seq != 1 || from != path {
				t.Fatalf("cut %d: recovered seq %d from %q, err %v; want seq 1 from primary", cut, st.Seq, from, err)
			}
		}
	})

	t.Run("before rename keeps the primary", func(t *testing.T) {
		_, path := newDir()
		if err := WriteFile(path, Encode(mkState(1)), SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, Encode(mkState(2)), SaveOptions{Crash: CrashBeforeRename}); !errors.Is(err, ErrInjectedCrash) {
			t.Fatal(err)
		}
		st, from, err := ReadLadder(path)
		if err != nil || st.Seq != 1 || from != path {
			t.Fatalf("recovered seq %d from %q, err %v", st.Seq, from, err)
		}
	})

	t.Run("between renames falls back to prev", func(t *testing.T) {
		_, path := newDir()
		if err := WriteFile(path, Encode(mkState(1)), SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, Encode(mkState(2)), SaveOptions{Crash: CrashBetweenRenames}); !errors.Is(err, ErrInjectedCrash) {
			t.Fatal(err)
		}
		st, from, err := ReadLadder(path)
		if err != nil || st.Seq != 1 || from != PrevPath(path) {
			t.Fatalf("recovered seq %d from %q, err %v; want seq 1 from prev", st.Seq, from, err)
		}
		// The next successful snapshot heals the ladder.
		if err := WriteFile(path, Encode(mkState(3)), SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		st, from, err = ReadLadder(path)
		if err != nil || st.Seq != 3 || from != path {
			t.Fatalf("after heal: seq %d from %q, err %v", st.Seq, from, err)
		}
	})

	t.Run("generations rotate", func(t *testing.T) {
		_, path := newDir()
		for seq := uint64(1); seq <= 3; seq++ {
			if err := WriteFile(path, Encode(mkState(seq)), SaveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		st, _, err := ReadLadder(path)
		if err != nil || st.Seq != 3 {
			t.Fatalf("primary seq %d, err %v", st.Seq, err)
		}
		prev, err := ReadFile(PrevPath(path))
		if err != nil || prev.Seq != 2 {
			t.Fatalf("prev seq %d, err %v", prev.Seq, err)
		}
	})

	// After a crash between the renames, path.prev is the only committed
	// generation: the next write must not recycle it, even through the
	// Encoder that committed the image at path, so a torn write then still
	// recovers it.
	t.Run("torn write after a crash between renames keeps prev", func(t *testing.T) {
		_, path := newDir()
		var en Encoder
		for seq := uint64(1); seq <= 2; seq++ {
			if err := writeImage(&en, path, mkState(seq), SaveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeImage(&en, path, mkState(3), SaveOptions{Crash: CrashBetweenRenames}); !errors.Is(err, ErrInjectedCrash) {
			t.Fatal(err)
		}
		st4 := mkState(4)
		size := int64(len(Encode(st4)))
		for _, cut := range []int64{0, size / 2, size} {
			if err := writeImage(&en, path, st4, SaveOptions{Crash: CrashDuringWrite, CrashAfter: cut}); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			st, from, err := ReadLadder(path)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if st.Seq != 2 || from != PrevPath(path) {
				t.Fatalf("cut %d: recovered seq %d from %q; want seq 2 from prev", cut, st.Seq, from)
			}
		}
	})

	// An Encoder recycles only behind an image it committed itself. A
	// path it did not write (here one that no longer verifies, as after a
	// restore that fell back to path.prev) is not trusted to be the one
	// generation left while a write is in flight, so a torn first write
	// still recovers path.prev.
	t.Run("torn first write over a damaged primary keeps prev", func(t *testing.T) {
		_, path := newDir()
		for seq := uint64(1); seq <= 2; seq++ {
			if err := WriteFile(path, Encode(mkState(seq)), SaveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img[len(img)/2] ^= 0x01
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		st3 := mkState(3)
		size := int64(len(Encode(st3)))
		for _, cut := range []int64{0, size / 2, size} {
			var en Encoder
			if err := writeImage(&en, path, st3, SaveOptions{Crash: CrashDuringWrite, CrashAfter: cut}); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			st, from, err := ReadLadder(path)
			if err != nil || st.Seq != 1 || from != PrevPath(path) {
				t.Fatalf("cut %d: recovered %v from %q; want seq 1 from prev", cut, err, from)
			}
		}
	})

	// A primary that does not verify is not retired over path.prev: a
	// crash between the renames of the write that replaces it (here the
	// first snapshot after a restore that fell back to path.prev) still
	// recovers path.prev, and the next write replaces the damaged primary
	// and keeps path.prev.
	t.Run("crash between renames over a damaged primary keeps prev", func(t *testing.T) {
		_, path := newDir()
		for seq := uint64(1); seq <= 2; seq++ {
			if err := WriteFile(path, Encode(mkState(seq)), SaveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img[len(img)/2] ^= 0x01
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		var en Encoder
		if err := writeImage(&en, path, mkState(3), SaveOptions{Crash: CrashBetweenRenames}); !errors.Is(err, ErrInjectedCrash) {
			t.Fatal(err)
		}
		st, from, err := ReadLadder(path)
		if err != nil || st.Seq != 1 || from != PrevPath(path) {
			t.Fatalf("recovered %v from %q; want seq 1 from prev", err, from)
		}
		if err := writeImage(&en, path, mkState(4), SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		for f, want := range map[string]uint64{path: 4, PrevPath(path): 1} {
			if st, err := ReadFile(f); err != nil || st.Seq != want {
				t.Fatalf("%s: %v; want seq %d", filepath.Base(f), err, want)
			}
		}
	})

	// A recycled file is cut to the new image's length: writing smaller
	// images over a larger one leaves no trailing bytes.
	t.Run("smaller images over a larger one", func(t *testing.T) {
		_, path := newDir()
		sts := []*State{mkDenseState(), mkState(2), mkState(3)}
		imgs := [][]byte{Encode(sts[0]), Encode(sts[1]), Encode(sts[2])}
		if len(imgs[0]) <= 10*len(imgs[2]) {
			t.Fatalf("images of %d and %d bytes; want the first far larger", len(imgs[0]), len(imgs[2]))
		}
		var en Encoder
		var big os.FileInfo
		for i, st := range sts {
			if err := writeImage(&en, path, st, SaveOptions{}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				big = fi
			}
		}
		for _, f := range []struct {
			path string
			want []byte
		}{{path, imgs[2]}, {PrevPath(path), imgs[1]}} {
			got, err := os.ReadFile(f.path)
			if err != nil || !bytes.Equal(got, f.want) {
				t.Fatalf("%s holds %d bytes (err %v); want exactly the %d-byte image", filepath.Base(f.path), len(got), err, len(f.want))
			}
		}
		if fi, err := os.Stat(path); err != nil || !os.SameFile(big, fi) {
			t.Fatalf("the newest image is not in the large image's recycled file (err %v)", err)
		}
		st, from, err := ReadLadder(path)
		if err != nil || st.Seq != 3 || from != path {
			t.Fatalf("ladder: %v from %q; want seq 3 from the primary", err, from)
		}
	})

	// After every write k, path holds k and path.prev holds k−1, no temp
	// file is left, and from the third write on path is the file that
	// held k−2: the oldest generation's file is overwritten, not replaced.
	t.Run("after k writes path holds k and prev k-1", func(t *testing.T) {
		_, path := newDir()
		var en Encoder
		var files []os.FileInfo
		for k := uint64(1); k <= 5; k++ {
			if err := writeImage(&en, path, mkState(k), SaveOptions{}); err != nil {
				t.Fatal(err)
			}
			if st, err := ReadFile(path); err != nil || st.Seq != k {
				t.Fatalf("write %d: primary: %v", k, err)
			}
			prev, err := ReadFile(PrevPath(path))
			switch {
			case k == 1 && !errors.Is(err, fs.ErrNotExist):
				t.Fatalf("write 1: prev: got %v, want it missing", err)
			case k > 1 && (err != nil || prev.Seq != k-1):
				t.Fatalf("write %d: prev: %v", k, err)
			}
			if _, err := os.Stat(tmpPath(path)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("write %d: temp file left behind (%v)", k, err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, fi)
			if k >= 3 && !os.SameFile(files[k-3], fi) {
				t.Fatalf("write %d went to a new file, not the recycled one of generation %d", k, k-2)
			}
		}
	})
}

// writeImage encodes st through en on one worker and writes the image to
// path, as the serving layer's Snapshot does.
func writeImage(en *Encoder, path string, st *State, opts SaveOptions) error {
	object := func(x int, _ *dynamic.ObjectState) *dynamic.ObjectState { return &st.Objects[x] }
	return en.Encode(st, 1, object).WriteFile(path, opts)
}

// The recovery ladder's terminal states: both generations missing is
// ErrNoSnapshot (fresh start); anything present but unusable is
// ErrCorrupt (cold-solve fallback, and worry).
func TestReadLadderTerminalStates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.hbn")

	if _, _, err := ReadLadder(path); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing both: %v", err)
	}

	img := Encode(mkState(1))
	if err := WriteFile(path, img, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil { // truncate the primary
		t.Fatal(err)
	}
	if _, _, err := ReadLadder(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt primary, no prev: %v", err)
	}

	// A good prev rescues a corrupt primary.
	if err := os.WriteFile(PrevPath(path), Encode(mkState(9)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, from, err := ReadLadder(path)
	if err != nil || st.Seq != 9 || from != PrevPath(path) {
		t.Fatalf("recovered seq %d from %q, err %v", st.Seq, from, err)
	}

	// Both damaged: ErrCorrupt, never a panic.
	if err := os.WriteFile(PrevPath(path), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLadder(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("both corrupt: %v", err)
	}
}

// ReadFile keeps fs.ErrNotExist observable so the ladder can distinguish
// "never written" from "written and damaged".
func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}
