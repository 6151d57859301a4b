// Package wire is the daemon's binary protocol: a tight length-prefixed,
// CRC-framed codec over TCP, in the same hostile-input discipline as
// internal/snapshot's decoder — every count a frame claims is bounded by
// the bytes that actually arrived before anything is allocated, every
// rejection is a typed sentinel, and nothing ever panics on garbage.
//
// # Stream layout
//
// A connection opens with an 12-byte handshake in each direction
// (magic "HBNWIRE1" + version u32 LE); a peer speaking a different
// protocol or version is rejected with ErrBadHeader before any frame is
// read. After the handshake the stream is a sequence of frames:
//
//	payloadLen u32 LE   length of payload (capped at MaxFramePayload)
//	crc        u32 LE   CRC-32 (IEEE) of payload
//	payload             type byte + seq uvarint + type-specific body
//
// The sequence number echoes requests to replies; for tail frames it is
// the daemon's apply sequence (the replay order of the handoff protocol).
//
// # Robustness contract
//
// Decoding is allocation-bounded: a frame's length prefix is validated
// against MaxFramePayload before any buffer is sized, and body-level
// counts (events per batch, nodes per reply) are validated against the
// payload bytes that remain — a forged count can never demand more memory
// than the attacker already paid for in transmitted bytes. All failures
// are typed: ErrBadHeader (handshake), ErrFrameTooLarge (length prefix),
// ErrCorruptFrame (CRC, truncation, malformed body, unknown type).
// FuzzWireDecode holds the no-panic/typed-rejection line.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"hbn/internal/obs"
	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

// Protocol identity. Version bumps are breaking: a mismatched peer is
// rejected at the handshake, exactly like the snapshot codec's
// exact-version rule.
const (
	Magic   = "HBNWIRE1"
	Version = 1
	// HeaderSize is the per-direction handshake size.
	HeaderSize = len(Magic) + 4
	// frameHeaderSize is the per-frame prefix (payloadLen + crc).
	frameHeaderSize = 8
	// MaxFramePayload caps one frame's payload: large enough for a 64k
	// event batch or a snapshot chunk, small enough that a hostile length
	// prefix cannot demand an unbounded allocation.
	MaxFramePayload = 4 << 20
	// MaxBatchEvents caps the events one ingest or tail frame may carry
	// (the per-event minimum of 2 encoded bytes already bounds it near
	// MaxFramePayload/2; this is the explicit protocol-level cap).
	MaxBatchEvents = 1 << 20
	// MaxStringLen caps embedded strings (error messages, handoff targets).
	MaxStringLen = 1 << 10
	// SnapChunkSize is the chunk size HandoffTo streams snapshot images in.
	SnapChunkSize = 256 << 10
	// MaxStatsShards / MaxStatsHists / MaxFlightEvents cap the variable
	// sections of a TMsgStatsOK body against hostile counts.
	MaxStatsShards  = 1 << 12
	MaxStatsHists   = 64
	MaxFlightEvents = 1 << 14
)

// Type identifies a frame's payload.
type Type byte

const (
	// TIngest carries one request batch with a deadline budget;
	// TIngestOK acknowledges it with the batch's service cost.
	TIngest Type = iota + 1
	TIngestOK
	// TOverloaded is the typed shed: the admission queue was full (or the
	// daemon is draining) and the batch was NOT ingested; the payload
	// carries a retry-after hint derived from the measured service rate.
	TOverloaded
	// TExpired reports a batch dropped because its deadline budget was
	// already spent before it reached Cluster.Ingest.
	TExpired
	// TError is a typed failure reply (bad request, busy, standby, ...).
	TError
	// TQuery asks for an object's current copy placement.
	TQuery
	TQueryOK
	// TStats asks for the daemon + cluster counters.
	TStats
	TStatsOK
	// TSnapshot asks the daemon to write a durable snapshot now.
	TSnapshot
	TSnapshotOK
	// TReconfig applies a topology diff. NOT idempotent: the client never
	// retries it, and the daemon never queues it behind admission.
	TReconfig
	TReconfigOK
	// THandoff asks the daemon to hand its cluster off to a standby at
	// the given address; THandoffOK reports the completed handoff.
	THandoff
	THandoffOK
	// Handoff stream (daemon → standby): begin (image size), snapshot
	// chunks, sequence-numbered tail batches, commit (fingerprint).
	THandoffBegin
	TSnapChunk
	TTail
	THandoffCommit
	// TMsgStats asks for the daemon's full telemetry export — per-shard
	// counters, latency histograms, queue gauges and the flight-recorder
	// tail. Idempotent and read-only, like TStats.
	TMsgStats
	TMsgStatsOK
	maxType = TMsgStatsOK
)

func (t Type) String() string {
	names := [...]string{"?", "ingest", "ingest-ok", "overloaded", "expired",
		"error", "query", "query-ok", "stats", "stats-ok", "snapshot",
		"snapshot-ok", "reconfig", "reconfig-ok", "handoff", "handoff-ok",
		"handoff-begin", "snap-chunk", "tail", "handoff-commit",
		"msg-stats", "msg-stats-ok"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// Typed sentinels. Everything the decoder rejects wraps ErrCorruptFrame;
// the transport-level caps and handshake have their own sentinels so
// peers and tests can tell hostile framing from hostile bodies.
var (
	ErrBadHeader     = errors.New("wire: bad protocol header")
	ErrFrameTooLarge = errors.New("wire: frame exceeds payload cap")
	ErrCorruptFrame  = errors.New("wire: corrupt frame")
	// ErrOverloaded is the client-side view of a TOverloaded shed; the
	// concrete error is an *OverloadedError carrying the retry-after hint.
	ErrOverloaded = errors.New("wire: server overloaded")
	// ErrExpired reports a batch the daemon dropped past its deadline.
	ErrExpired = errors.New("wire: deadline budget exhausted")
	// ErrBusy maps the server's CodeBusy (reconfiguration or snapshot in
	// flight) through RemoteError.Is.
	ErrBusy = errors.New("wire: reconfiguration in progress")
	// ErrStandby maps CodeStandby: the peer is a warm standby that has not
	// taken a handoff yet and serves no traffic.
	ErrStandby = errors.New("wire: peer is a standby")
)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptFrame, fmt.Sprintf(format, args...))
}

// OverloadedError is the typed shed error: the server refused the batch
// and suggests retrying no sooner than RetryAfter. errors.Is(err,
// ErrOverloaded) matches it.
type OverloadedError struct {
	RetryAfter time.Duration
	// QueueLen/QueueCap snapshot the admission queue at the shed, for
	// operator visibility in client logs.
	QueueLen, QueueCap int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("wire: server overloaded (queue %d/%d), retry after %v",
		e.QueueLen, e.QueueCap, e.RetryAfter)
}

func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Remote error codes carried by TError.
const (
	CodeBadRequest byte = iota + 1
	CodeBusy
	CodeStandby
	CodeInternal
	maxCode = CodeInternal
)

// RemoteError is a typed failure the server reported. errors.Is matches
// ErrBusy for CodeBusy and ErrStandby for CodeStandby.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error (code %d): %s", e.Code, e.Msg)
}

func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrBusy:
		return e.Code == CodeBusy
	case ErrStandby:
		return e.Code == CodeStandby
	}
	return false
}

// Frame is one decoded frame: its type, the request/apply sequence
// number, and the type-specific body (aliasing the read buffer — parse or
// copy it before the next read).
type Frame struct {
	Type Type
	Seq  uint64
	Body []byte
}

// WriteHeader writes this side's handshake.
func WriteHeader(w io.Writer) error {
	var b [HeaderSize]byte
	copy(b[:], Magic)
	binary.LittleEndian.PutUint32(b[len(Magic):], Version)
	_, err := w.Write(b[:])
	return err
}

// ReadHeader reads and validates the peer's handshake.
func ReadHeader(r io.Reader) error {
	var b [HeaderSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if string(b[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	if v := binary.LittleEndian.Uint32(b[len(Magic):]); v != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrBadHeader, v, Version)
	}
	return nil
}

// AppendFrame appends the framed encoding of (typ, seq, body) to dst and
// returns the extended slice — the write-side primitive shared by the
// socket path and the on-disk tail log.
func AppendFrame(dst []byte, typ Type, seq uint64, body []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	dst = append(dst, byte(typ))
	dst = binary.AppendUvarint(dst, seq)
	dst = append(dst, body...)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// WriteFrame writes one frame. The scratch buffer, when non-nil, is
// reused for the encoding (callers on the hot path keep one per
// connection); it returns the possibly-grown scratch.
func WriteFrame(w io.Writer, typ Type, seq uint64, body, scratch []byte) ([]byte, error) {
	buf := AppendFrame(scratch[:0], typ, seq, body)
	_, err := w.Write(buf)
	return buf, err
}

// ReadFrame reads one frame from r, reusing buf for the payload when its
// capacity suffices. The returned frame's Body aliases the returned
// buffer. Transport failures come back verbatim (io.EOF at a clean frame
// boundary means the peer closed); framing violations are typed.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFramePayload {
		return Frame{}, buf, fmt.Errorf("%w: payload length %d", ErrFrameTooLarge, n)
	}
	if n == 0 {
		return Frame{}, buf, corrupt("empty payload")
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, corrupt("truncated payload: %v", err)
	}
	want := binary.LittleEndian.Uint32(hdr[4:])
	if got := crc32.ChecksumIEEE(buf); got != want {
		return Frame{}, buf, corrupt("checksum mismatch (got %08x, want %08x)", got, want)
	}
	f, err := parsePayload(buf)
	return f, buf, err
}

// DecodeFrame parses one frame from the front of data (the buffer-level
// twin of ReadFrame, used by the tail-log reader and the fuzz target) and
// returns the frame plus the bytes consumed. A truncated buffer — fewer
// bytes than the header or the length prefix promise — is reported as
// io.ErrUnexpectedEOF with consumed 0, which the tail-log reader treats
// as the crash-torn end of the log; everything else is a typed
// corruption sentinel.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < frameHeaderSize {
		return Frame{}, 0, fmt.Errorf("%w: short frame header (%d bytes)", io.ErrUnexpectedEOF, len(data))
	}
	n := binary.LittleEndian.Uint32(data[:4])
	if n > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d", ErrFrameTooLarge, n)
	}
	if n == 0 {
		return Frame{}, 0, corrupt("empty payload")
	}
	if uint32(len(data)-frameHeaderSize) < n {
		return Frame{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", io.ErrUnexpectedEOF, len(data)-frameHeaderSize, n)
	}
	payload := data[frameHeaderSize : frameHeaderSize+int(n)]
	want := binary.LittleEndian.Uint32(data[4:8])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Frame{}, 0, corrupt("checksum mismatch (got %08x, want %08x)", got, want)
	}
	f, err := parsePayload(payload)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, frameHeaderSize + int(n), nil
}

func parsePayload(payload []byte) (Frame, error) {
	typ := Type(payload[0])
	if typ == 0 || typ > maxType {
		return Frame{}, corrupt("unknown frame type %d", payload[0])
	}
	seq, sn := binary.Uvarint(payload[1:])
	if sn <= 0 {
		return Frame{}, corrupt("truncated sequence number")
	}
	return Frame{Type: typ, Seq: seq, Body: payload[1+sn:]}, nil
}

// dec is the sticky-error body decoder (the snapshot codec's idiom):
// counts are bounded by the bytes that remain before anything is
// allocated.
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

// count reads an element count bounded by the caller's cap AND by the
// remaining payload divided by the per-element byte floor — a forged
// count cannot demand allocations beyond the bytes on the wire.
func (d *dec) count(max, minElemBytes int, what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(len(d.b)/minElemBytes) {
		d.fail("%s count %d out of range", what, v)
		return 0
	}
	return int(v)
}

// id reads a non-negative index bounded by max.
func (d *dec) id(max uint64, what string) uint64 {
	v := d.uvarint()
	if d.err == nil && v > max {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return v
}

func (d *dec) str(what string) string {
	n := d.count(MaxStringLen, 1, what)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return corrupt("%d trailing payload bytes", len(d.b))
	}
	return nil
}

// ---- Ingest / tail bodies ----

// AppendEvents appends the event-batch encoding (count + per-event
// object/write and node varints) to dst.
func AppendEvents(dst []byte, events []workload.TraceEvent) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for i := range events {
		e := &events[i]
		key := uint64(e.Object) << 1
		if e.Write {
			key |= 1
		}
		dst = binary.AppendUvarint(dst, key)
		dst = binary.AppendUvarint(dst, uint64(e.Node))
	}
	return dst
}

// AppendIngestBody appends an ingest body: the deadline budget in
// microseconds (0 = none) followed by the event batch.
func AppendIngestBody(dst []byte, budget time.Duration, events []workload.TraceEvent) []byte {
	us := budget.Microseconds()
	if us < 0 {
		us = 0
	}
	dst = binary.AppendUvarint(dst, uint64(us))
	return AppendEvents(dst, events)
}

// parseEvents decodes an event batch into events (reusing its capacity).
func (d *dec) parseEvents(events []workload.TraceEvent) []workload.TraceEvent {
	n := d.count(MaxBatchEvents, 2, "event")
	if d.err != nil {
		return nil
	}
	if cap(events) < n {
		events = make([]workload.TraceEvent, 0, n)
	}
	events = events[:0]
	for i := 0; i < n; i++ {
		key := d.id(math.MaxInt32<<1|1, "event object")
		node := d.id(math.MaxInt32, "event node")
		if d.err != nil {
			return nil
		}
		events = append(events, workload.TraceEvent{
			Object: int(key >> 1),
			Node:   tree.NodeID(node),
			Write:  key&1 != 0,
		})
	}
	return events
}

// ParseIngestBody decodes an ingest body, appending into events'
// capacity. The budget is the client's remaining deadline at send time.
func ParseIngestBody(body []byte, events []workload.TraceEvent) (budget time.Duration, out []workload.TraceEvent, err error) {
	d := &dec{b: body}
	us := d.id(math.MaxInt64/1000, "deadline budget")
	out = d.parseEvents(events)
	if err := d.done(); err != nil {
		return 0, nil, err
	}
	return time.Duration(us) * time.Microsecond, out, nil
}

// ParseTailBody decodes a tail frame's event batch.
func ParseTailBody(body []byte, events []workload.TraceEvent) ([]workload.TraceEvent, error) {
	d := &dec{b: body}
	out := d.parseEvents(events)
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- Small reply bodies ----

// AppendCost encodes a TIngestOK body.
func AppendCost(dst []byte, cost int64) []byte { return binary.AppendVarint(dst, cost) }

// ParseCost decodes a TIngestOK body.
func ParseCost(body []byte) (int64, error) {
	d := &dec{b: body}
	v := d.varint()
	if err := d.done(); err != nil {
		return 0, err
	}
	return v, nil
}

// AppendOverloaded encodes a TOverloaded body.
func AppendOverloaded(dst []byte, retryAfter time.Duration, queueLen, queueCap int) []byte {
	us := retryAfter.Microseconds()
	if us < 0 {
		us = 0
	}
	dst = binary.AppendUvarint(dst, uint64(us))
	dst = binary.AppendUvarint(dst, uint64(queueLen))
	dst = binary.AppendUvarint(dst, uint64(queueCap))
	return dst
}

// ParseOverloaded decodes a TOverloaded body into the typed error.
func ParseOverloaded(body []byte) (*OverloadedError, error) {
	d := &dec{b: body}
	us := d.id(math.MaxInt64/1000, "retry-after")
	ql := d.id(math.MaxInt32, "queue length")
	qc := d.id(math.MaxInt32, "queue capacity")
	if err := d.done(); err != nil {
		return nil, err
	}
	return &OverloadedError{
		RetryAfter: time.Duration(us) * time.Microsecond,
		QueueLen:   int(ql),
		QueueCap:   int(qc),
	}, nil
}

// AppendError encodes a TError body. Messages are truncated to the
// protocol cap rather than rejected — the error path must never fail to
// encode.
func AppendError(dst []byte, code byte, msg string) []byte {
	if len(msg) > MaxStringLen {
		msg = msg[:MaxStringLen]
	}
	dst = append(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// ParseError decodes a TError body into the typed remote error.
func ParseError(body []byte) (*RemoteError, error) {
	d := &dec{b: body}
	code := d.byte()
	if d.err == nil && (code == 0 || code > maxCode) {
		d.fail("unknown error code %d", code)
	}
	msg := d.str("error message")
	if err := d.done(); err != nil {
		return nil, err
	}
	return &RemoteError{Code: code, Msg: msg}, nil
}

// AppendQuery encodes a TQuery body.
func AppendQuery(dst []byte, object int) []byte {
	return binary.AppendUvarint(dst, uint64(object))
}

// ParseQuery decodes a TQuery body.
func ParseQuery(body []byte) (int, error) {
	d := &dec{b: body}
	x := d.id(math.MaxInt32, "query object")
	if err := d.done(); err != nil {
		return 0, err
	}
	return int(x), nil
}

// AppendNodes encodes a TQueryOK body (an object's copy nodes).
func AppendNodes(dst []byte, nodes []tree.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(nodes)))
	for _, v := range nodes {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// ParseNodes decodes a TQueryOK body.
func ParseNodes(body []byte) ([]tree.NodeID, error) {
	d := &dec{b: body}
	n := d.count(math.MaxInt32, 1, "node")
	if d.err != nil {
		return nil, d.err
	}
	out := make([]tree.NodeID, n)
	for i := range out {
		out[i] = tree.NodeID(d.id(math.MaxInt32, "node"))
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- Stats ----

// DaemonStats is the counter set a TStatsOK carries: the daemon's
// admission ledger plus the cluster's conservation counters, so a client
// can check the ledger equality (accepted events == cluster requests;
// Σ service load + dropped == Σ ingest costs) over the wire.
type DaemonStats struct {
	AppliedSeq uint64 // apply sequence of the last ingested batch

	AcceptedBatches int64
	AcceptedEvents  int64
	ShedBatches     int64
	ShedEvents      int64
	ExpiredBatches  int64
	ExpiredEvents   int64
	QueueLen        int64
	QueueCap        int64
	QueueHighWater  int64
	Draining        bool

	Requests           int64 // cluster: requests served
	ServiceCost        int64 // cluster: Σ ingest costs
	ServiceLoadSum     int64 // cluster: Σ per-edge service load
	DroppedLoad        int64
	DroppedServiceLoad int64
	Epochs             int64
	Reconfigs          int64
	MaxEdgeLoad        int64
	SnapshotSeq        uint64
}

// AppendStats encodes a TStatsOK body.
func AppendStats(dst []byte, s *DaemonStats) []byte {
	dst = binary.AppendUvarint(dst, s.AppliedSeq)
	for _, v := range []int64{
		s.AcceptedBatches, s.AcceptedEvents, s.ShedBatches, s.ShedEvents,
		s.ExpiredBatches, s.ExpiredEvents, s.QueueLen, s.QueueCap,
		s.QueueHighWater, s.Requests, s.ServiceCost, s.ServiceLoadSum,
		s.DroppedLoad, s.DroppedServiceLoad, s.Epochs, s.Reconfigs,
		s.MaxEdgeLoad,
	} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, s.SnapshotSeq)
	var flags byte
	if s.Draining {
		flags |= 1
	}
	return append(dst, flags)
}

// ParseStats decodes a TStatsOK body.
func ParseStats(body []byte) (*DaemonStats, error) {
	d := &dec{b: body}
	s := &DaemonStats{}
	s.AppliedSeq = d.uvarint()
	for _, p := range []*int64{
		&s.AcceptedBatches, &s.AcceptedEvents, &s.ShedBatches, &s.ShedEvents,
		&s.ExpiredBatches, &s.ExpiredEvents, &s.QueueLen, &s.QueueCap,
		&s.QueueHighWater, &s.Requests, &s.ServiceCost, &s.ServiceLoadSum,
		&s.DroppedLoad, &s.DroppedServiceLoad, &s.Epochs, &s.Reconfigs,
		&s.MaxEdgeLoad,
	} {
		*p = d.varint()
	}
	s.SnapshotSeq = d.uvarint()
	flags := d.byte()
	if d.err == nil && flags&^byte(1) != 0 {
		d.fail("unknown stats flags %#x", flags)
	}
	s.Draining = flags&1 != 0
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// ---- Snapshot reply ----

// SnapshotResult is a TSnapshotOK body: the committed generation and the
// serving stall the snapshot cost.
type SnapshotResult struct {
	Seq   uint64
	Bytes int64
	// CutStallNs is how long the daemon held its apply lock for the
	// snapshot: the cluster's cut and in-memory encode, the write, fsync
	// and rename, and the tail truncate. No batch is applied in that
	// window.
	CutStallNs int64
}

// AppendSnapshotResult encodes a TSnapshotOK body.
func AppendSnapshotResult(dst []byte, r *SnapshotResult) []byte {
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendVarint(dst, r.Bytes)
	return binary.AppendVarint(dst, r.CutStallNs)
}

// ParseSnapshotResult decodes a TSnapshotOK body.
func ParseSnapshotResult(body []byte) (*SnapshotResult, error) {
	d := &dec{b: body}
	r := &SnapshotResult{Seq: d.uvarint(), Bytes: d.varint(), CutStallNs: d.varint()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ---- Reconfigure ----

// ReconfigRequest is a TReconfig body: the topology diff.
type ReconfigRequest struct {
	Diff topo.Diff
}

// AppendReconfig encodes a TReconfig body. The body opens with a flags
// byte, always written as 0 (see ParseReconfig).
func AppendReconfig(dst []byte, r *ReconfigRequest) []byte {
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(r.Diff.Remove)))
	for _, v := range r.Diff.Remove {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Diff.Add)))
	for i := range r.Diff.Add {
		g := &r.Diff.Add[i]
		var k byte
		if g.Kind == tree.Processor {
			k = 1
		}
		dst = append(dst, k)
		dst = binary.AppendVarint(dst, g.Bandwidth)
		dst = binary.AppendUvarint(dst, uint64(g.Parent))
		dst = binary.AppendUvarint(dst, uint64(g.ParentAdded))
		dst = binary.AppendVarint(dst, g.SwitchBandwidth)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Diff.SetBusBandwidth)))
	for _, b := range r.Diff.SetBusBandwidth {
		dst = binary.AppendUvarint(dst, uint64(b.Node))
		dst = binary.AppendVarint(dst, b.Bandwidth)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Diff.SetSwitchBandwidth)))
	for _, sw := range r.Diff.SetSwitchBandwidth {
		dst = binary.AppendUvarint(dst, uint64(sw.Edge))
		dst = binary.AppendVarint(dst, sw.Bandwidth)
	}
	return dst
}

// ParseReconfig decodes a TReconfig body. Grafted names are not carried
// (the protocol names nothing); semantic validation of the diff itself is
// topo.Apply's job on the serving side. Flag bit 0 once selected between
// two reconfiguration flavors; older clients still send it, so it is
// accepted and ignored. Any other flag bit is rejected.
func ParseReconfig(body []byte) (*ReconfigRequest, error) {
	d := &dec{b: body}
	r := &ReconfigRequest{}
	flags := d.byte()
	if d.err == nil && flags&^byte(1) != 0 {
		d.fail("unknown reconfig flags %#x", flags)
	}
	nr := d.count(math.MaxInt32, 1, "removal")
	if d.err != nil {
		return nil, d.err
	}
	if nr > 0 {
		r.Diff.Remove = make([]tree.NodeID, nr)
		for i := range r.Diff.Remove {
			r.Diff.Remove[i] = tree.NodeID(d.id(math.MaxInt32, "removal node"))
		}
	}
	na := d.count(math.MaxInt32, 5, "graft")
	if d.err != nil {
		return nil, d.err
	}
	if na > 0 {
		r.Diff.Add = make([]topo.Graft, na)
		for i := range r.Diff.Add {
			g := &r.Diff.Add[i]
			k := d.byte()
			if d.err == nil && k > 1 {
				d.fail("unknown graft kind %d", k)
			}
			if k == 1 {
				g.Kind = tree.Processor
			} else {
				g.Kind = tree.Bus
			}
			g.Bandwidth = d.varint()
			g.Parent = tree.NodeID(d.id(math.MaxInt32, "graft parent"))
			g.ParentAdded = int(d.id(math.MaxInt32, "graft parent index"))
			g.SwitchBandwidth = d.varint()
		}
	}
	nb := d.count(math.MaxInt32, 2, "bus bandwidth change")
	if d.err != nil {
		return nil, d.err
	}
	if nb > 0 {
		r.Diff.SetBusBandwidth = make([]topo.BusBandwidth, nb)
		for i := range r.Diff.SetBusBandwidth {
			r.Diff.SetBusBandwidth[i] = topo.BusBandwidth{
				Node:      tree.NodeID(d.id(math.MaxInt32, "bus node")),
				Bandwidth: d.varint(),
			}
		}
	}
	ns := d.count(math.MaxInt32, 2, "switch bandwidth change")
	if d.err != nil {
		return nil, d.err
	}
	if ns > 0 {
		r.Diff.SetSwitchBandwidth = make([]topo.SwitchBandwidth, ns)
		for i := range r.Diff.SetSwitchBandwidth {
			r.Diff.SetSwitchBandwidth[i] = topo.SwitchBandwidth{
				Edge:      tree.EdgeID(d.id(math.MaxInt32, "switch edge")),
				Bandwidth: d.varint(),
			}
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ReconfigResult is a TReconfigOK body.
type ReconfigResult struct {
	// MaxIngestStallNs is how long the daemon's applies were paused: from
	// taking the apply lock to releasing it, a window that covers the
	// reconfiguration, the commit snapshot and the tail truncate. No
	// admitted batch is applied during it.
	MaxIngestStallNs int64
	// DroppedLoad / DroppedServiceLoad are the reconfiguration's
	// conservation-ledger drops (serve.ReconfigStats).
	DroppedLoad        int64
	DroppedServiceLoad int64
}

// AppendReconfigResult encodes a TReconfigOK body.
func AppendReconfigResult(dst []byte, r *ReconfigResult) []byte {
	dst = binary.AppendVarint(dst, r.MaxIngestStallNs)
	dst = binary.AppendVarint(dst, r.DroppedLoad)
	return binary.AppendVarint(dst, r.DroppedServiceLoad)
}

// ParseReconfigResult decodes a TReconfigOK body.
func ParseReconfigResult(body []byte) (*ReconfigResult, error) {
	d := &dec{b: body}
	r := &ReconfigResult{
		MaxIngestStallNs:   d.varint(),
		DroppedLoad:        d.varint(),
		DroppedServiceLoad: d.varint(),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ---- Handoff ----

// AppendString encodes a THandoff body (the standby address).
func AppendString(dst []byte, s string) []byte {
	if len(s) > MaxStringLen {
		s = s[:MaxStringLen]
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ParseString decodes a THandoff body.
func ParseString(body []byte) (string, error) {
	d := &dec{b: body}
	s := d.str("string")
	if err := d.done(); err != nil {
		return "", err
	}
	return s, nil
}

// HandoffBegin is a THandoffBegin body: the apply sequence the streamed
// snapshot image is consistent with, and the image size (so the standby
// knows when the chunk stream is complete).
type HandoffBegin struct {
	BaseSeq   uint64
	ImageLen  int64
	NumChunks int64
}

// AppendHandoffBegin encodes a THandoffBegin body.
func AppendHandoffBegin(dst []byte, h *HandoffBegin) []byte {
	dst = binary.AppendUvarint(dst, h.BaseSeq)
	dst = binary.AppendVarint(dst, h.ImageLen)
	return binary.AppendVarint(dst, h.NumChunks)
}

// ParseHandoffBegin decodes a THandoffBegin body.
func ParseHandoffBegin(body []byte) (*HandoffBegin, error) {
	d := &dec{b: body}
	h := &HandoffBegin{BaseSeq: d.uvarint(), ImageLen: d.varint(), NumChunks: d.varint()}
	if d.err == nil && (h.ImageLen < 0 || h.NumChunks < 0) {
		d.fail("negative handoff image dimensions")
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// HandoffCommit is a THandoffCommit body: the final apply sequence plus a
// conservation fingerprint the standby re-checks after replay.
type HandoffCommit struct {
	FinalSeq    uint64
	Requests    int64
	ServiceCost int64
}

// AppendHandoffCommit encodes a THandoffCommit body.
func AppendHandoffCommit(dst []byte, h *HandoffCommit) []byte {
	dst = binary.AppendUvarint(dst, h.FinalSeq)
	dst = binary.AppendVarint(dst, h.Requests)
	return binary.AppendVarint(dst, h.ServiceCost)
}

// ParseHandoffCommit decodes a THandoffCommit body.
func ParseHandoffCommit(body []byte) (*HandoffCommit, error) {
	d := &dec{b: body}
	h := &HandoffCommit{FinalSeq: d.uvarint(), Requests: d.varint(), ServiceCost: d.varint()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// ---- Telemetry export (TMsgStatsOK) ----

// HistStat is one named latency histogram in a telemetry export. Buckets
// is the dense log2 bucket array (obs.NumBuckets entries); the encoding
// on the wire is sparse (only non-zero buckets travel). Count is derived
// from the buckets on parse, so a decoded HistStat is self-consistent by
// construction.
type HistStat struct {
	Name                 string
	Count, Sum, Min, Max int64
	Buckets              [obs.NumBuckets]int64
}

// Quantile mirrors obs.HistSnapshot.Quantile over the decoded buckets.
func (h *HistStat) Quantile(q float64) int64 {
	s := obs.HistSnapshot{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, Buckets: h.Buckets}
	return s.Quantile(q)
}

// MsgStats is a TMsgStatsOK body: the daemon's full telemetry export.
// Where DaemonStats is the conservation ledger (exact counters a client
// reconciles against), MsgStats is the observability surface: per-shard
// counter rows, admission gauges, strategy op counts, latency histograms
// and the flight-recorder tail.
type MsgStats struct {
	// Per-shard counter rows (index = shard).
	ShardEvents, ShardCost, ShardBatches []int64
	// Dropped totals and drift-trigger count (cluster-wide).
	DroppedLoad, DroppedCost, DriftFires int64
	// Strategy op counts accumulated across epochs and reconfigurations.
	Replications, Contractions, Materializations, Adoptions int64
	// Admission gauges: queue occupancy and the apply-time EWMA the
	// retry-after hint derives from.
	QueueLen, QueueCap, QueueHighWater, EwmaApplyNs int64
	// Named latency histograms (ingest_batch, epoch_pass, ...).
	Hists []HistStat
	// Flight is the recorder tail, oldest first, bounded by
	// MaxFlightEvents.
	Flight []obs.Event
}

// AppendMsgStats encodes a TMsgStatsOK body. Shard rows beyond
// MaxStatsShards, histograms beyond MaxStatsHists and flight events
// beyond MaxFlightEvents are truncated rather than rejected — the export
// path must never fail to encode.
func AppendMsgStats(dst []byte, m *MsgStats) []byte {
	shards := min(len(m.ShardEvents), min(len(m.ShardCost), len(m.ShardBatches)))
	shards = min(shards, MaxStatsShards)
	dst = binary.AppendUvarint(dst, uint64(shards))
	for i := 0; i < shards; i++ {
		dst = binary.AppendVarint(dst, m.ShardEvents[i])
		dst = binary.AppendVarint(dst, m.ShardCost[i])
		dst = binary.AppendVarint(dst, m.ShardBatches[i])
	}
	for _, v := range []int64{
		m.DroppedLoad, m.DroppedCost, m.DriftFires,
		m.Replications, m.Contractions, m.Materializations, m.Adoptions,
		m.QueueLen, m.QueueCap, m.QueueHighWater, m.EwmaApplyNs,
	} {
		dst = binary.AppendVarint(dst, v)
	}
	hists := m.Hists
	if len(hists) > MaxStatsHists {
		hists = hists[:MaxStatsHists]
	}
	dst = binary.AppendUvarint(dst, uint64(len(hists)))
	for i := range hists {
		h := &hists[i]
		name := h.Name
		if len(name) > MaxStringLen {
			name = name[:MaxStringLen]
		}
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendVarint(dst, h.Sum)
		dst = binary.AppendVarint(dst, h.Min)
		dst = binary.AppendVarint(dst, h.Max)
		nz := 0
		for _, c := range h.Buckets {
			if c != 0 {
				nz++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(nz))
		for b, c := range h.Buckets {
			if c != 0 {
				dst = append(dst, byte(b))
				dst = binary.AppendVarint(dst, c)
			}
		}
	}
	flight := m.Flight
	if len(flight) > MaxFlightEvents {
		flight = flight[len(flight)-MaxFlightEvents:] // keep the newest
	}
	dst = binary.AppendUvarint(dst, uint64(len(flight)))
	for i := range flight {
		e := &flight[i]
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = binary.AppendVarint(dst, e.TimeNs)
		dst = binary.AppendUvarint(dst, uint64(e.Kind))
		dst = binary.AppendVarint(dst, int64(e.Shard))
		dst = binary.AppendVarint(dst, e.A)
		dst = binary.AppendVarint(dst, e.B)
		dst = binary.AppendVarint(dst, e.C)
	}
	return dst
}

// ParseMsgStats decodes a TMsgStatsOK body under the hostile-input
// discipline: every count is bounded before allocation.
func ParseMsgStats(body []byte) (*MsgStats, error) {
	d := &dec{b: body}
	m := &MsgStats{}
	ns := d.count(MaxStatsShards, 3, "stats shard")
	if d.err != nil {
		return nil, d.err
	}
	if ns > 0 {
		m.ShardEvents = make([]int64, ns)
		m.ShardCost = make([]int64, ns)
		m.ShardBatches = make([]int64, ns)
		for i := 0; i < ns; i++ {
			m.ShardEvents[i] = d.varint()
			m.ShardCost[i] = d.varint()
			m.ShardBatches[i] = d.varint()
		}
	}
	for _, p := range []*int64{
		&m.DroppedLoad, &m.DroppedCost, &m.DriftFires,
		&m.Replications, &m.Contractions, &m.Materializations, &m.Adoptions,
		&m.QueueLen, &m.QueueCap, &m.QueueHighWater, &m.EwmaApplyNs,
	} {
		*p = d.varint()
	}
	nh := d.count(MaxStatsHists, 4, "histogram")
	if d.err != nil {
		return nil, d.err
	}
	if nh > 0 {
		m.Hists = make([]HistStat, nh)
		for i := range m.Hists {
			h := &m.Hists[i]
			h.Name = d.str("histogram name")
			h.Sum = d.varint()
			h.Min = d.varint()
			h.Max = d.varint()
			nb := d.count(obs.NumBuckets, 2, "histogram bucket")
			if d.err != nil {
				return nil, d.err
			}
			for j := 0; j < nb; j++ {
				b := d.byte()
				c := d.varint()
				if d.err != nil {
					return nil, d.err
				}
				if int(b) >= obs.NumBuckets {
					return nil, corrupt("histogram bucket %d out of range", b)
				}
				if c < 0 {
					return nil, corrupt("negative histogram bucket count %d", c)
				}
				h.Buckets[b] = c
				h.Count += c
			}
		}
	}
	nf := d.count(MaxFlightEvents, 7, "flight event")
	if d.err != nil {
		return nil, d.err
	}
	if nf > 0 {
		m.Flight = make([]obs.Event, nf)
		for i := range m.Flight {
			e := &m.Flight[i]
			e.Seq = d.uvarint()
			e.TimeNs = d.varint()
			e.Kind = obs.Kind(d.id(math.MaxUint8, "flight kind"))
			e.Shard = int32(d.varint())
			e.A = d.varint()
			e.B = d.varint()
			e.C = d.varint()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}
