package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"

	"hbn/internal/dynamic"
	"hbn/internal/par"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Header layout: magic(8) + version(4) + bodyLen(8); trailer: crc(4).
const (
	magic = "HBNSNAP1"
	// version is the layout Encode writes; Decode also reads version3
	// and version2 (all three are described in the package comment).
	version    = 4
	version3   = 3
	version2   = 2
	headerSize = len(magic) + 4 + 8
	crcSize    = 4
	// maxCells bounds the decoded workload dimensions (objects × nodes),
	// the same guard workload.Decode applies: a forged count must not be
	// able to demand a huge dense allocation before validation.
	maxCells = 1 << 26
)

// enc appends the image's scalar fields.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = appendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

// appendUvarint is binary.AppendUvarint with the one-byte case inlined:
// most ids and frequencies are below 0x80.
func appendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// The sections an object range writes into, as indexes of part.sec: the
// solver's cells, the last-fold cells, the object records, and from
// secShard on one section per shard, the cells its objects recorded since
// their last fold.
const (
	secSolver = iota
	secPrev
	secObjects
	secShard
)

// section is one range's bytes of one section, in ascending object
// order, and the number of cells among them.
type section struct {
	b     []byte
	cells int
}

// part is one contiguous object range's share of the image. Each range
// owns its part, scratch state included, so ranges encode concurrently
// and the bytes do not depend on which worker encoded which range.
type part struct {
	sec     []section
	scratch dynamic.ObjectState
	last    []workload.Access // a row as of the last fold (see dynamic.SinceFold.LastFold)
}

// encode writes objects [lo, hi) of st: for each object its SolverW row,
// its TrackerW row as of its last fold, its TrackerW row less that into
// its shard's section, and its record. A last-fold row with no cell is
// not read a second time, and one its since-fold state knows is zero (an
// object never folded with a count) is not built or read at all.
func (p *part) encode(st *State, lo, hi int, object func(x int, scratch *dynamic.ObjectState) *dynamic.ObjectState) {
	shards := len(st.ShardStates)
	for x := lo; x < hi; x++ {
		p.row(secSolver, x, st.SolverW.Row(x), nil)
		cur := st.TrackerW.Row(x)
		last := st.ShardStates[x%shards].Since.LastFold(x, cur, p.last)
		if last != nil && p.row(secPrev, x, last, nil) == 0 {
			last = nil
		}
		p.row(secShard+x%shards, x, cur, last)
		p.object(object(x, &p.scratch))
	}
}

// row appends the non-zero cells of object x's row to section s as
// (object, node, reads, writes) and returns how many it appended. With a
// non-nil base, each cell is written less base's cell, which must not
// exceed it.
func (p *part) row(s, x int, row, base []workload.Access) int {
	sec := &p.sec[s]
	b, n := sec.b, 0
	var sign int64
	for v, a := range row {
		if base != nil {
			a.Reads -= base[v].Reads
			a.Writes -= base[v].Writes
			sign |= a.Reads | a.Writes
		}
		if a.Reads|a.Writes != 0 {
			n++
			b = appendUvarint(b, uint64(x))
			b = appendUvarint(b, uint64(v))
			b = appendUvarint(b, uint64(a.Reads))
			b = appendUvarint(b, uint64(a.Writes))
		}
	}
	if sign < 0 {
		// State documents TrackerW >= its last-fold counts cell by cell;
		// the serving layer's fold keeps it. A violation is a programming
		// error, like an unencodable tree. The differences' sign bits are
		// ORed and checked once per row, which keeps a branch out of the
		// loop.
		panic("snapshot: tracker count below its last-fold count")
	}
	sec.b = b
	sec.cells += n
	return n
}

// object appends one object record: a presence byte, then for a present
// object its copy list, its live counters and its write streak.
func (p *part) object(o *dynamic.ObjectState) {
	sec := &p.sec[secObjects]
	b := sec.b
	if !o.Present {
		sec.b = append(b, 0)
		return
	}
	b = append(b, 1)
	b = appendUvarint(b, uint64(len(o.Copies)))
	for _, v := range o.Copies {
		b = appendUvarint(b, uint64(v))
	}
	b = appendUvarint(b, uint64(len(o.Counters)))
	for _, ec := range o.Counters {
		b = appendUvarint(b, uint64(ec.Edge))
		b = appendUvarint(b, uint64(ec.Count))
	}
	sec.b = appendUvarint(b, uint64(o.WriteStreak))
}

// Image is an encoded snapshot, held in the pieces it was encoded in.
// The glue holds the header, the scalar fields, the tree, each section's
// cell count, the epoch log, the shards' load accounts and drift queues,
// and the checksum; each run is spliced into the glue at its offset, and
// is one section's bytes from every range, in range order. The file is
// the glue with the runs spliced in.
type Image struct {
	glue  []byte
	runs  []run
	parts []part
	en    *Encoder // the Encoder that encoded it (see WriteFile)
}

// run is a splice point of an Image: section sec goes before glue[at].
type run struct{ at, sec int }

// each calls fn on the image's pieces in file order.
func (im *Image) each(fn func([]byte)) {
	at := 0
	for _, r := range im.runs {
		fn(im.glue[at:r.at])
		at = r.at
		for i := range im.parts {
			fn(im.parts[i].sec[r.sec].b)
		}
	}
	fn(im.glue[at:])
}

// Len returns the image's length in bytes.
func (im *Image) Len() int {
	n := 0
	im.each(func(p []byte) { n += len(p) })
	return n
}

// Bytes returns the image as one slice.
func (im *Image) Bytes() []byte {
	b := make([]byte, 0, im.Len())
	im.each(func(p []byte) { b = append(b, p...) })
	return b
}

// WriteTo writes the image to w, one Write per non-empty piece.
func (im *Image) WriteTo(w io.Writer) (int64, error) {
	var n int64
	var err error
	im.each(func(p []byte) {
		if err != nil || len(p) == 0 {
			return
		}
		var m int
		m, err = w.Write(p)
		n += int64(m)
	})
	return n, err
}

// Encode serializes st into a complete snapshot image (header + body +
// checksum), ready for WriteFile. st.Objects holds st.NumObjects entries.
// It is an Encoder's image of st on one worker, as one slice.
func Encode(st *State) []byte {
	var e Encoder
	return e.Encode(st, 1, func(x int, _ *dynamic.ObjectState) *dynamic.ObjectState { return &st.Objects[x] }).Bytes()
}

// Encoder encodes snapshot images. The zero value is ready to use. It
// keeps no image bytes between calls, only the length of each section and
// of the glue of the last image, so that the next image of a similar
// state allocates each range's share of a section, and the glue, once, at
// about its final size, at any worker count; and the path its last image
// was committed to (see Image.WriteFile). An Encoder's images are encoded
// and written one at a time.
type Encoder struct {
	sizes     []int
	glue      int
	committed string
}

// Encode encodes the image of st in one pass over its objects, split into
// par.Workers(workers) contiguous ranges [n·r/W, n·(r+1)/W) that are
// encoded concurrently. Object x's state comes from object(x, scratch),
// called once per object with the scratch state of x's range, and
// st.Objects is ignored: the serving layer's cut passes a State whose
// tables and slices are its live ones and exports each object into the
// scratch, so nothing is cloned. Workers only read st. The image's bytes
// are the same at every worker count, and equal Encode's for the same
// state. A panic in a worker reaches the caller.
func (en *Encoder) Encode(st *State, workers int, object func(x int, scratch *dynamic.ObjectState) *dynamic.ObjectState) *Image {
	blob, err := st.Tree.JSON()
	if err != nil {
		// The tree came out of a live cluster; its codec round-trips by
		// construction. Failing to serialize it is a programming error.
		panic("snapshot: tree encode: " + err.Error())
	}
	n, nsec := st.NumObjects, secShard+len(st.ShardStates)
	w := min(par.Workers(workers), max(n, 1))
	if len(en.sizes) != nsec {
		en.sizes = make([]int, nsec)
	}
	im := &Image{parts: make([]part, w), runs: make([]run, 0, nsec), en: en}
	nodes, edges := st.Tree.Len(), st.Tree.NumEdges()
	for r := range im.parts {
		p := &im.parts[r]
		p.sec = make([]section, nsec)
		for s := range p.sec {
			// The range's share of the section's last size, and 1/8 more.
			if c := en.sizes[s] / w; c > 0 {
				p.sec[s].b = make([]byte, 0, c+c/8)
			}
		}
		// The scratch holds any object's copies and counters.
		p.scratch.Copies = make([]tree.NodeID, 0, nodes)
		p.scratch.Counters = make([]dynamic.EdgeCounter, 0, edges)
		p.last = make([]workload.Access, nodes)
	}
	par.ForEach(w, w, func(_, r int) { im.parts[r].encode(st, n*r/w, n*(r+1)/w, object) })
	for s := range en.sizes {
		en.sizes[s] = 0
		for r := range im.parts {
			en.sizes[s] += len(im.parts[r].sec[s].b)
		}
	}
	cells := func(s int) uint64 {
		c := 0
		for r := range im.parts {
			c += im.parts[r].sec[s].cells
		}
		return uint64(c)
	}

	e := &enc{b: make([]byte, headerSize, max(en.glue+en.glue/8, headerSize+len(blob)+256))}
	splice := func(sec int) { im.runs = append(im.runs, run{at: len(e.b), sec: sec}) }
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
	e.uvarint(uint64(len(blob)))
	e.b = append(e.b, blob...)

	e.uvarint(cells(secSolver))
	splice(secSolver)
	e.uvarint(cells(secPrev))
	splice(secPrev)

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
	pp := &st.Pending
	e.uvarint(uint64(pp.Calls))
	if pp.Calls > 0 {
		e.varint(pp.Requests)
		e.uvarint(uint64(pp.Drifted))
		e.byte(encodeTrigger(pp.Trigger))
		e.f64(pp.DriftMagnitude)
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
		// exactly the cells its own objects touched since their last fold,
		// each with its count since then.
		e.uvarint(cells(secShard + i))
		splice(secShard + i)
		e.uvarint(uint64(len(ss.Drift)))
		for _, x := range ss.Drift {
			e.uvarint(uint64(x))
		}
	}
	splice(secObjects)

	im.glue = e.b
	size := im.Len()
	h := im.glue[:headerSize]
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[len(magic):], version)
	binary.LittleEndian.PutUint64(h[len(magic)+4:], uint64(size-headerSize))
	crc, skip := uint32(0), headerSize
	im.each(func(p []byte) {
		k := min(skip, len(p))
		skip -= k
		crc = crc32.Update(crc, crc32.IEEETable, p[k:])
	})
	im.glue = binary.LittleEndian.AppendUint32(im.glue, crc)
	en.glue = len(im.glue)
	return im
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
// tables and the shards' since-fold states are bounded as Decode states.
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

// cell reads one table cell (object, node, reads, writes) of w's
// dimensions.
func (d *dec) cell(w *workload.W) (x int, v tree.NodeID, a workload.Access) {
	x = d.id(w.NumObjects(), "workload object")
	v = tree.NodeID(d.id(w.NumNodes(), "workload node"))
	r := d.uvarint()
	wr := d.uvarint()
	if r > math.MaxInt64 || wr > math.MaxInt64 {
		d.fail("workload frequency overflow")
	}
	return x, v, workload.Access{Reads: int64(r), Writes: int64(wr)}
}

// rows reads a section part.row wrote into w, and when has is non-nil
// marks in it each object with a cell.
func (d *dec) rows(w *workload.W, has []bool) {
	n := d.count(len(d.b), "workload cell")
	for i := 0; i < n && d.err == nil; i++ {
		if x, v, a := d.cell(w); d.err == nil {
			w.Set(x, v, a)
			if has != nil {
				has[x] = true
			}
		}
	}
}

// since reads shard first's section (of step shards) into w, which holds
// the counts as of each object's last fold, and touches in s every cell
// whose count moved since: a v3 or v4 section holds the counts since the
// fold, which it adds to w's (a sum past the int64 range is corrupt), and
// a v2 one the recorded counts, which replace w's and must not fall below
// them. The cells must lie in the rows x ≡ first (mod step) and ascend in
// (object, node): no writer produces another order or a foreign row, and
// accepting one would make a re-encode differ from its input. It returns
// how many of the cells held a nonzero last-fold count.
func (d *dec) since(w *workload.W, s *dynamic.SinceFold, first, step int, v2 bool) int {
	n := d.count(len(d.b), "workload cell")
	matched, last := 0, -1
	for i := 0; i < n && d.err == nil; i++ {
		x, v, a := d.cell(w)
		if d.err == nil && x%step != first {
			d.fail("workload object %d is not one of the section's rows (%d mod %d)", x, first, step)
		}
		at := x*w.NumNodes() + int(v)
		if d.err == nil && at <= last {
			d.fail("workload cell (%d,%d) out of order", x, v)
		}
		if d.err != nil {
			break
		}
		last = at
		prev := w.At(x, v)
		if v2 {
			if a.Reads < prev.Reads || a.Writes < prev.Writes {
				d.fail("object %d node %d: tracker count %+v below its last-fold count %+v", x, v, a, prev)
				break
			}
			if prev != (workload.Access{}) {
				matched++
			}
		} else {
			if a.Reads > math.MaxInt64-prev.Reads || a.Writes > math.MaxInt64-prev.Writes {
				d.fail("workload frequency overflow")
				break
			}
			a.Reads += prev.Reads
			a.Writes += prev.Writes
		}
		if a != prev {
			s.Touch(x, v, prev)
			w.Set(x, v, a)
		}
	}
	return matched
}

// validMagnitude reports whether m can be a drift magnitude: a mean L1
// distance of normalized frequency vectors, bounded by 2 (small float
// slack for summation order).
func validMagnitude(m float64) bool {
	return !math.IsNaN(m) && m >= 0 && m <= 2.0000001
}

// pending reads a v4 image's pending-pass record, which follows the epoch
// log. A pending pass adopts a solved placement, so it needs the solved
// flag, and its fold happened at or before the cut.
func (d *dec) pending(st *State) PendingPass {
	var p PendingPass
	p.Calls = int(d.val(math.MaxInt32, "pending pass calls"))
	if p.Calls == 0 || d.err != nil {
		return p
	}
	if !st.Solved {
		d.fail("pending pass without a solved placement")
	}
	p.Requests = d.nonneg("pending pass requests")
	if d.err == nil && p.Requests > st.Served {
		d.fail("pending pass folded at %d requests, after the cut at %d", p.Requests, st.Served)
	}
	p.Drifted = int(d.val(int64(st.NumObjects), "pending pass drift"))
	tb := d.byte()
	if trig, ok := decodeTrigger(tb); ok {
		p.Trigger = trig
	} else if d.err == nil {
		d.fail("pending pass: unknown trigger %#x", tb)
	}
	p.DriftMagnitude = d.f64()
	if d.err == nil && !validMagnitude(p.DriftMagnitude) {
		d.fail("pending pass: drift magnitude %v out of range", p.DriftMagnitude)
	}
	return p
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

// Decode parses and verifies a complete snapshot image, of version 4, 3
// or 2. All failures wrap ErrCorrupt, and Decode never panics. Every count is
// capped by the bytes that remain before it is trusted; the allocations
// that can outgrow the input are the two dense frequency tables, objects
// × nodes × 16 B each, with objects at most the body's length and objects
// × nodes at most maxCells, and the shards' since-fold states, one bit
// per cell and 32 B per object in all, plus about 200 B per shard.
func Decode(data []byte) (*State, error) {
	ver, body, err := unframe(data)
	if err != nil {
		return nil, err
	}
	return decodeBody(body, ver, nil)
}

// unframe checks an image's frame — magic, version, length prefix and
// checksum — and returns its version and body.
func unframe(data []byte) (uint32, []byte, error) {
	if len(data) < headerSize+crcSize {
		return 0, nil, corrupt("file too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, nil, corrupt("bad magic")
	}
	off := len(magic)
	ver := binary.LittleEndian.Uint32(data[off:])
	if ver != version && ver != version3 && ver != version2 {
		return 0, nil, corrupt("unsupported version %d", ver)
	}
	bodyLen := binary.LittleEndian.Uint64(data[off+4:])
	if bodyLen != uint64(len(data)-headerSize-crcSize) {
		return 0, nil, corrupt("length prefix %d does not match %d body bytes (torn write?)",
			bodyLen, len(data)-headerSize-crcSize)
	}
	body := data[headerSize : headerSize+int(bodyLen)]
	want := binary.LittleEndian.Uint32(data[headerSize+int(bodyLen):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, nil, corrupt("checksum mismatch (got %08x, want %08x)", got, want)
	}
	return ver, body, nil
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
	st.TrackerW = workload.New(numObjects, nodes)
	d.rows(st.SolverW, nil)
	// The last-fold section goes into TrackerW, to which each shard's
	// section then adds the counts since the fold (v3 and v4) or whose
	// counts it replaces with the recorded ones (v2). The objects with a
	// last-fold cell are marked folded in their shard's since-fold state.
	folded := make([]bool, numObjects)
	d.rows(st.TrackerW, folded)
	prevCells := 0
	for x := 0; v2 && d.err == nil && x < numObjects; x++ {
		for _, a := range st.TrackerW.Row(x) {
			if a != (workload.Access{}) {
				prevCells++
			}
		}
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
			if d.err == nil && !validMagnitude(r.DriftMagnitude) {
				d.fail("epoch %d: drift magnitude %v out of range", i, r.DriftMagnitude)
			}
			if d.err != nil {
				break
			}
		}
	}
	if ver == version && d.err == nil {
		st.Pending = d.pending(st)
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
			if d.err != nil {
				break
			}
			ss.Since = dynamic.NewSinceFold(numObjects, nodes, nshards)
			for x := i; x < numObjects; x += nshards {
				if folded[x] {
					ss.Since.MarkFolded(x)
				}
			}
			prevCells -= d.since(st.TrackerW, ss.Since, i, nshards, v2)
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
	// A v3 or v4 image cannot hold a last-fold count above its recorded
	// count (the difference is unsigned on the wire); a v2 one can, and serving
	// it would fold a negative frequency. Each shard section checked its
	// own cells; a nonzero last-fold cell with no recorded cell at all
	// (a recorded count of 0) is one the sections did not match.
	if v2 && d.err == nil && prevCells != 0 {
		d.fail("%d last-fold counts stand above recorded counts of 0", prevCells)
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
