package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"

	"hbn/internal/dynamic"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Header layout: magic(8) + version(4) + bodyLen(8); trailer: crc(4).
const (
	magic = "HBNSNAP1"
	// version is the layout Encode writes; Decode also reads version2
	// (both are described in the package comment).
	version    = 3
	version2   = 2
	headerSize = len(magic) + 4 + 8
	crcSize    = 4
	// maxCells bounds the decoded workload dimensions (objects × nodes),
	// the same guard workload.Decode applies: a forged count must not be
	// able to demand a huge dense allocation before validation.
	maxCells = 1 << 26
)

// enc is the append-only image encoder.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = appendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

// Write appends p, so tree.Encode can write the topology in place.
func (e *enc) Write(p []byte) (int, error) {
	e.b = append(e.b, p...)
	return len(p), nil
}

// gap reserves room for a uvarint that is known only once what follows
// it has been written; fill writes the value there and closes the unused
// part of the gap.
func (e *enc) gap() int {
	at := len(e.b)
	e.b = append(e.b, make([]byte, binary.MaxVarintLen64)...)
	return at
}

func (e *enc) fill(at int, v uint64) {
	n := binary.PutUvarint(e.b[at:], v)
	e.b = append(e.b[:at+n], e.b[at+binary.MaxVarintLen64:]...)
}

// rows writes the rows x = first, first+step, ... of w as a sparse
// (object, node, reads, writes) list behind its cell count, in one scan.
// The dimensions are implied by the surrounding state (NumObjects × tree
// nodes), so they cannot disagree with it. With a nil base, rows records
// in hasCells (when non-nil) which rows hold a cell. With a non-nil base,
// each cell is written less base's cell, which must not exceed it, and
// hasCells names the base rows that hold one: the others are not read.
func (e *enc) rows(w, base *workload.W, first, step int, hasCells []bool) {
	at := e.gap()
	b, cells := e.b, 0
	for x := first; x < w.NumObjects(); x += step {
		var brow []workload.Access
		if base != nil && hasCells[x] {
			brow = base.Row(x)
		}
		for v, a := range w.Row(x) {
			if brow != nil {
				a.Reads -= brow[v].Reads
				a.Writes -= brow[v].Writes
				if a.Reads < 0 || a.Writes < 0 {
					// State documents TrackerW >= PrevW cell by cell; the
					// serving layer's fold keeps it. A violation is a
					// programming error, like an unencodable tree.
					panic("snapshot: tracker count below its last-fold count")
				}
			}
			if a.Reads|a.Writes != 0 {
				cells++
				b = appendUvarint(b, uint64(x))
				b = appendUvarint(b, uint64(v))
				b = appendUvarint(b, uint64(a.Reads))
				b = appendUvarint(b, uint64(a.Writes))
				if base == nil && hasCells != nil {
					hasCells[x] = true
				}
			}
		}
	}
	e.b = b
	e.fill(at, uint64(cells))
}

// appendUvarint is binary.AppendUvarint with the one-byte case inlined:
// most ids and frequencies are below 0x80.
func appendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// Encode serializes st into a complete snapshot image (header + body +
// checksum), ready for WriteFile. st.Objects holds st.NumObjects entries.
func Encode(st *State) []byte {
	return AppendEncode(nil, st, func(x int) *dynamic.ObjectState { return &st.Objects[x] })
}

// AppendEncode appends the image of st to dst and returns the extended
// slice. Objects come from object(x) for x in [0, st.NumObjects), read
// once each in order, and st.Objects is ignored: the serving layer's cut
// passes a State whose tables and slices are the live ones and exports
// each object into one reused scratch state, so the image is written in
// one pass with nothing cloned. The bytes equal Encode's for the same
// state.
func AppendEncode(dst []byte, st *State, object func(x int) *dynamic.ObjectState) []byte {
	start := len(dst)
	e := &enc{b: append(dst, make([]byte, headerSize)...)}
	e.uvarint(st.Seq)
	e.uvarint(uint64(st.NumObjects))
	e.uvarint(uint64(len(st.ShardStates)))
	e.varint(int64(st.Threshold))
	e.varint(st.EpochRequests)
	var flags byte
	if st.Solved {
		flags |= flagSolved
	}
	if st.BandwidthAware {
		flags |= flagBandwidthAware
	}
	e.byte(flags)
	e.varint(int64(st.WriteBudget))
	e.f64(st.DriftThreshold)
	e.varint(st.DriftCheckRequests)
	e.varint(st.Served)
	e.varint(st.Epochs)
	e.varint(st.DriftEpochs)
	e.varint(st.Reconfigs)
	e.varint(st.DriftedTotal)
	e.varint(st.AdoptMoved)
	e.varint(st.ResolveTimeNs)
	e.varint(st.DroppedLoad)
	e.varint(st.DroppedServiceLoad)

	at := e.gap()
	if err := tree.Encode(e, st.Tree); err != nil {
		// The tree came out of a live cluster; its codec round-trips by
		// construction. Failing to serialize it is a programming error.
		panic("snapshot: tree encode: " + err.Error())
	}
	e.fill(at, uint64(len(e.b)-at-binary.MaxVarintLen64))

	e.rows(st.SolverW, nil, 0, 1, nil)
	folded := make([]bool, st.NumObjects) // objects whose PrevW row holds a cell
	e.rows(st.PrevW, nil, 0, 1, folded)

	e.uvarint(uint64(len(st.EpochLog)))
	for _, r := range st.EpochLog {
		e.varint(r.Epoch)
		e.varint(r.Requests)
		e.uvarint(uint64(r.Drifted))
		e.varint(r.Moved)
		e.f64(r.StaticCongestion)
		e.varint(r.MaxEdgeLoad)
		e.varint(r.ResolveNs)
		e.byte(encodeTrigger(r.Trigger))
		e.f64(r.DriftMagnitude)
	}

	for i := range st.ShardStates {
		ss := &st.ShardStates[i]
		for _, l := range ss.EdgeLoad {
			e.varint(l)
		}
		for _, l := range ss.MoveLoad {
			e.varint(l)
		}
		e.varint(ss.Requests)
		e.varint(ss.Cost)
		// Shard i records only the objects it owns, so its section holds
		// exactly the cells of its own rows of the one table, each less
		// the count as of the object's last fold.
		e.rows(st.TrackerW, st.PrevW, i, len(st.ShardStates), folded)
		e.uvarint(uint64(len(ss.Drift)))
		for _, x := range ss.Drift {
			e.uvarint(uint64(x))
		}
	}

	for x := 0; x < st.NumObjects; x++ {
		o := object(x)
		if !o.Present {
			e.byte(0)
			continue
		}
		e.byte(1)
		e.uvarint(uint64(len(o.Copies)))
		for _, v := range o.Copies {
			e.uvarint(uint64(v))
		}
		e.uvarint(uint64(len(o.Counters)))
		for _, ec := range o.Counters {
			e.uvarint(uint64(ec.Edge))
			e.uvarint(uint64(ec.Count))
		}
		e.uvarint(uint64(o.WriteStreak))
	}

	h, body := e.b[start:start+headerSize], e.b[start+headerSize:]
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[len(magic):], version)
	binary.LittleEndian.PutUint64(h[len(magic)+4:], uint64(len(body)))
	return binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(body))
}

// Epoch trigger wire codes. The empty string round-trips as its own code
// so hand-built states (fuzz corpus seeds, tests) encode losslessly.
func encodeTrigger(t string) byte {
	switch t {
	case "cadence":
		return 0
	case "drift":
		return 1
	case "manual":
		return 2
	case "":
		return 3
	default:
		// Triggers come from the serve package's closed label set; an
		// unknown one is a programming error, like an unencodable tree.
		panic("snapshot: unknown epoch trigger " + t)
	}
}

func decodeTrigger(b byte) (string, bool) {
	switch b {
	case 0:
		return "cadence", true
	case 1:
		return "drift", true
	case 2:
		return "manual", true
	case 3:
		return "", true
	default:
		return "", false
	}
}

// dec is the sticky-error body decoder. Every count it trusts is first
// bounded by the bytes that remain (each encoded element is at least one
// byte), so no list it allocates is larger than the input; the dense
// tables are bounded as Decode states.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corrupt(format, args...)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// nonneg reads a varint that must be >= 0.
func (d *dec) nonneg(what string) int64 {
	v := d.varint()
	if v < 0 {
		d.fail("negative %s %d", what, v)
	}
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads an element count and rejects it unless it fits both the
// caller's cap and the remaining body bytes (every encoded element is at
// least one byte, so a count larger than the remainder is forged).
func (d *dec) count(max int, what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(len(d.b)) {
		d.fail("%s count %d out of range", what, v)
		return 0
	}
	return int(v)
}

// val reads a plain non-negative value bounded by max (no remaining-bytes
// cap: values, unlike counts, do not imply further bytes).
func (d *dec) val(max int64, what string) int64 {
	v := d.uvarint()
	if d.err == nil && v > uint64(max) {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return int64(v)
}

// id reads a node/edge/object index bounded by n.
func (d *dec) id(n int, what string) int {
	v := d.uvarint()
	if d.err == nil && v >= uint64(n) {
		d.fail("%s %d out of range [0,%d)", what, v, n)
		return 0
	}
	return int(v)
}

func (d *dec) bytes(what string) []byte {
	n := d.count(len(d.b), what)
	if d.err != nil {
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// rows reads a section enc.rows wrote into w. With a non-nil base each
// cell is read as a count since base's cell and stored as their sum (w
// must then start as a copy of base); a sum past the int64 range is
// corrupt. A cell outside the rows x ≡ first (mod step) the section covers
// is corrupt too: no writer produces one, and accepting it would make a
// re-encode differ from its input.
func (d *dec) rows(w, base *workload.W, first, step int) {
	n := d.count(len(d.b), "workload cell")
	for i := 0; i < n && d.err == nil; i++ {
		x := d.id(w.NumObjects(), "workload object")
		v := d.id(w.NumNodes(), "workload node")
		r := d.uvarint()
		wr := d.uvarint()
		if r > math.MaxInt64 || wr > math.MaxInt64 {
			d.fail("workload frequency overflow")
		}
		if d.err == nil && x%step != first {
			d.fail("workload object %d is not one of the section's rows (%d mod %d)", x, first, step)
		}
		if d.err != nil {
			return
		}
		a := workload.Access{Reads: int64(r), Writes: int64(wr)}
		if base != nil {
			b := base.At(x, tree.NodeID(v))
			if a.Reads > math.MaxInt64-b.Reads || a.Writes > math.MaxInt64-b.Writes {
				d.fail("workload frequency overflow")
				return
			}
			a.Reads += b.Reads
			a.Writes += b.Writes
		}
		w.Set(x, tree.NodeID(v), a)
	}
}

func (d *dec) loads(n int, what string) []int64 {
	if d.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.nonneg(what)
		if d.err != nil {
			return nil
		}
	}
	return out
}

// Decode parses and verifies a complete snapshot image, of version 3 or
// 2. All failures wrap ErrCorrupt, and Decode never panics. Every count is
// capped by the bytes that remain before it is trusted; the one
// allocation that can outgrow the input is the three dense frequency
// tables, objects × nodes × 16 B each, with objects at most the body's
// length and objects × nodes at most maxCells.
func Decode(data []byte) (*State, error) {
	if len(data) < headerSize+crcSize {
		return nil, corrupt("file too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, corrupt("bad magic")
	}
	off := len(magic)
	ver := binary.LittleEndian.Uint32(data[off:])
	if ver != version && ver != version2 {
		return nil, corrupt("unsupported version %d", ver)
	}
	bodyLen := binary.LittleEndian.Uint64(data[off+4:])
	if bodyLen != uint64(len(data)-headerSize-crcSize) {
		return nil, corrupt("length prefix %d does not match %d body bytes (torn write?)",
			bodyLen, len(data)-headerSize-crcSize)
	}
	body := data[headerSize : headerSize+int(bodyLen)]
	want := binary.LittleEndian.Uint32(data[headerSize+int(bodyLen):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, corrupt("checksum mismatch (got %08x, want %08x)", got, want)
	}
	return decodeBody(body, ver, nil)
}

// State flag bits. Version 2 images may also carry bit 0, once a
// per-request serving knob that served bit-identically to the one path
// left; Decode accepts it there and drops it.
const (
	flagRetired        = 1
	flagSolved         = 2
	flagBandwidthAware = 4
)

// decodeBody decodes a body of version ver. The nearest tables or anchor
// of a v2 object record are bounds-checked and dropped; a non-nil
// v2Tables sees each table-mode object's tables first (the tests check
// them against their lists' rebuilds).
func decodeBody(body []byte, ver uint32, v2Tables func(x int, nearest []tree.NodeID, ndist []int32)) (*State, error) {
	d := &dec{b: body}
	v2 := ver == version2
	st := &State{}
	st.Seq = d.uvarint()
	numObjects := d.count(math.MaxInt32, "object")
	nshards := d.count(math.MaxInt32, "shard")
	st.NumObjects = numObjects
	st.Threshold = int(d.varint())
	st.EpochRequests = d.varint()
	known := byte(flagSolved | flagBandwidthAware)
	if v2 {
		// The retired decay-shift slot: range-checked as it always was,
		// then dropped. Images that carry 0 (full history) restore and
		// halve from their next epoch pass on.
		d.val(63, "decay shift")
		known |= flagRetired
	}
	flags := d.byte()
	if flags&^known != 0 {
		d.fail("unknown state flags %#x", flags)
	}
	st.Solved = flags&flagSolved != 0
	st.BandwidthAware = flags&flagBandwidthAware != 0
	st.WriteBudget = int(d.nonneg("write budget"))
	st.DriftThreshold = d.f64()
	if d.err == nil && (math.IsNaN(st.DriftThreshold) || st.DriftThreshold < 0) {
		d.fail("drift threshold %v out of range", st.DriftThreshold)
	}
	st.DriftCheckRequests = d.nonneg("drift check cadence")
	st.Served = d.nonneg("served count")
	st.Epochs = d.nonneg("epoch count")
	st.DriftEpochs = d.nonneg("drift epoch count")
	if d.err == nil && st.DriftEpochs > st.Epochs {
		d.fail("drift epochs %d exceed epochs %d", st.DriftEpochs, st.Epochs)
	}
	st.Reconfigs = d.nonneg("reconfig count")
	st.DriftedTotal = d.nonneg("drift total")
	st.AdoptMoved = d.nonneg("adoption distance")
	st.ResolveTimeNs = d.nonneg("resolve time")
	st.DroppedLoad = d.nonneg("dropped load")
	st.DroppedServiceLoad = d.nonneg("dropped service load")
	if nshards < 1 {
		d.fail("no shards")
	}
	if d.err != nil {
		return nil, d.err
	}

	tb := d.bytes("tree blob")
	if d.err != nil {
		return nil, d.err
	}
	t, err := tree.Decode(bytes.NewReader(tb))
	if err != nil {
		return nil, corrupt("tree: %v", err)
	}
	if err := t.ValidateHBN(); err != nil {
		return nil, corrupt("tree: %v", err)
	}
	st.Tree = t
	nodes, edges := t.Len(), t.NumEdges()
	// Every object record is at least one byte, so an object count past
	// the remaining body is forged; checking it here, before the tables
	// are allocated, bounds their rows by the input's size.
	if numObjects > len(d.b) {
		return nil, corrupt("object section shorter than %d objects", numObjects)
	}
	if nodes > 0 && numObjects > maxCells/nodes {
		return nil, corrupt("dimensions %d×%d exceed the %d-cell limit", numObjects, nodes, maxCells)
	}

	st.SolverW = workload.New(numObjects, nodes)
	st.PrevW = workload.New(numObjects, nodes)
	d.rows(st.SolverW, nil, 0, 1)
	d.rows(st.PrevW, nil, 0, 1)
	// A v3 shard section holds the counts since each object's last fold,
	// which decode adds to PrevW; a v2 one holds the recorded counts.
	var since *workload.W
	if v2 {
		st.TrackerW = workload.New(numObjects, nodes)
	} else {
		st.TrackerW = st.PrevW.Clone()
		since = st.PrevW
	}

	nlog := d.count(len(d.b), "epoch log")
	if d.err == nil {
		st.EpochLog = make([]EpochRec, nlog)
		for i := range st.EpochLog {
			r := &st.EpochLog[i]
			r.Epoch = d.varint()
			r.Requests = d.varint()
			r.Drifted = int(d.val(math.MaxInt32, "epoch drift"))
			r.Moved = d.varint()
			r.StaticCongestion = d.f64()
			r.MaxEdgeLoad = d.varint()
			r.ResolveNs = d.varint()
			tb := d.byte()
			if trig, ok := decodeTrigger(tb); ok {
				r.Trigger = trig
			} else if d.err == nil {
				d.fail("epoch %d: unknown trigger %#x", i, tb)
			}
			r.DriftMagnitude = d.f64()
			// The magnitude is a mean L1 distance of normalized frequency
			// vectors, bounded by 2 (small float slack for summation order).
			if d.err == nil && (math.IsNaN(r.DriftMagnitude) || r.DriftMagnitude < 0 || r.DriftMagnitude > 2.0000001) {
				d.fail("epoch %d: drift magnitude %v out of range", i, r.DriftMagnitude)
			}
			if d.err != nil {
				break
			}
		}
	}

	if d.err == nil {
		st.ShardStates = make([]ShardState, nshards)
		for i := range st.ShardStates {
			ss := &st.ShardStates[i]
			ss.EdgeLoad = d.loads(edges, "edge load")
			ss.MoveLoad = d.loads(edges, "move load")
			for e := range ss.MoveLoad {
				if d.err == nil && ss.MoveLoad[e] > ss.EdgeLoad[e] {
					d.fail("shard %d edge %d: move load %d exceeds edge load %d",
						i, e, ss.MoveLoad[e], ss.EdgeLoad[e])
				}
			}
			ss.Requests = d.nonneg("shard requests")
			ss.Cost = d.nonneg("shard cost")
			d.rows(st.TrackerW, since, i, nshards)
			nd := d.count(numObjects, "drift queue")
			if d.err != nil {
				break
			}
			ss.Drift = make([]int, nd)
			for j := range ss.Drift {
				ss.Drift[j] = d.id(numObjects, "drifted object")
			}
			if d.err != nil {
				break
			}
		}
	}
	// A v3 image cannot hold a last-fold count above its recorded count
	// (the difference is unsigned on the wire); a v2 one can, and serving
	// it would fold a negative frequency.
	for x := 0; v2 && d.err == nil && x < numObjects; x++ {
		prev := st.PrevW.Row(x)
		for v, a := range st.TrackerW.Row(x) {
			if a.Reads < prev[v].Reads || a.Writes < prev[v].Writes {
				d.fail("object %d node %d: tracker count %+v below its last-fold count %+v", x, v, a, prev[v])
			}
		}
	}

	if d.err == nil {
		st.Objects = make([]dynamic.ObjectState, numObjects)
		objFlags := byte(1) // presence; v2 adds bit 1, table mode (3)
		if v2 {
			objFlags = 3
		}
		var nearest []tree.NodeID
		var ndist []int32
		for i := range st.Objects {
			o := &st.Objects[i]
			f := d.byte()
			if f&^objFlags != 0 || f == 2 {
				d.fail("object %d: bad flags %#x", i, f)
			}
			if d.err != nil {
				break
			}
			if f == 0 {
				continue
			}
			o.Present = true
			nc := d.count(nodes, "copy")
			if d.err != nil {
				break
			}
			o.Copies = make([]tree.NodeID, nc)
			for j := range o.Copies {
				o.Copies[j] = tree.NodeID(d.id(nodes, "copy node"))
			}
			if f == 3 {
				nearest, ndist = nearest[:0], ndist[:0]
				for range nodes {
					nearest = append(nearest, tree.NodeID(d.id(nodes, "nearest node")))
				}
				for range nodes {
					ndist = append(ndist, int32(d.val(math.MaxInt32, "nearest distance")))
				}
				if v2Tables != nil && d.err == nil {
					v2Tables(i, nearest, ndist)
				}
			} else if v2 {
				d.id(nodes, "anchor")
			}
			nk := d.count(edges, "counter")
			if d.err != nil {
				break
			}
			o.Counters = make([]dynamic.EdgeCounter, nk)
			for j := range o.Counters {
				o.Counters[j] = dynamic.EdgeCounter{
					Edge:  tree.EdgeID(d.id(edges, "counter edge")),
					Count: int32(d.val(math.MaxInt32, "counter value")),
				}
			}
			o.WriteStreak = uint32(d.val(math.MaxUint32, "write streak"))
			if d.err != nil {
				break
			}
		}
	}

	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, corrupt("%d trailing bytes", len(d.b))
	}
	return st, nil
}
