package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hbn/internal/topo"
	"hbn/internal/tree"
	"hbn/internal/workload"
)

func randEvents(rng *rand.Rand, n int) []workload.TraceEvent {
	ev := make([]workload.TraceEvent, n)
	for i := range ev {
		ev[i] = workload.TraceEvent{
			Object: rng.Intn(1 << 20),
			Node:   tree.NodeID(rng.Intn(1 << 16)),
			Write:  rng.Intn(4) == 0,
		}
	}
	return ev
}

func TestFrameRoundTripStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	if err := WriteHeader(&buf); err != nil {
		t.Fatal(err)
	}
	type sent struct {
		typ  Type
		seq  uint64
		body []byte
	}
	var frames []sent
	var scratch []byte
	for i := 0; i < 50; i++ {
		typ := Type(rng.Intn(int(maxType)) + 1)
		body := make([]byte, rng.Intn(200)+1)
		rng.Read(body)
		seq := uint64(i + 1)
		var err error
		scratch, err = WriteFrame(&buf, typ, seq, body, scratch)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, sent{typ, seq, body})
	}
	if err := ReadHeader(&buf); err != nil {
		t.Fatal(err)
	}
	var rbuf []byte
	for i, want := range frames {
		var f Frame
		var err error
		f, rbuf, err = ReadFrame(&buf, rbuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != want.typ || f.Seq != want.seq || !bytes.Equal(f.Body, want.body) {
			t.Fatalf("frame %d: got (%v,%d,%d bytes), want (%v,%d,%d bytes)",
				i, f.Type, f.Seq, len(f.Body), want.typ, want.seq, len(want.body))
		}
	}
	if _, _, err := ReadFrame(&buf, rbuf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestHeaderRejectsMismatch(t *testing.T) {
	var good bytes.Buffer
	WriteHeader(&good)

	cases := map[string][]byte{
		"short":       good.Bytes()[:5],
		"bad magic":   append([]byte("XXNWIRE1"), good.Bytes()[len(Magic):]...),
		"bad version": append(append([]byte{}, good.Bytes()[:len(Magic)]...), 9, 0, 0, 0),
	}
	for name, b := range cases {
		if err := ReadHeader(bytes.NewReader(b)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("%s: err = %v, want ErrBadHeader", name, err)
		}
	}
}

func TestIngestBodyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 1000} {
		events := randEvents(rng, n)
		budget := time.Duration(rng.Intn(1e6)) * time.Microsecond
		body := AppendIngestBody(nil, budget, events)
		gotBudget, got, err := ParseIngestBody(body, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if gotBudget != budget {
			t.Fatalf("n=%d: budget %v, want %v", n, gotBudget, budget)
		}
		if len(got) != len(events) {
			t.Fatalf("n=%d: %d events, want %d", n, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], events[i])
			}
		}
		// Tail body is the same event encoding without the budget prefix.
		tail := AppendEvents(nil, events)
		got2, err := ParseTailBody(tail, got)
		if err != nil {
			t.Fatalf("tail n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got2, got) && !(len(got2) == 0 && len(got) == 0) {
			t.Fatalf("tail n=%d: mismatch", n)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := &DaemonStats{
		AppliedSeq: 42, AcceptedBatches: 1, AcceptedEvents: 2, ShedBatches: 3,
		ShedEvents: 4, ExpiredBatches: 5, ExpiredEvents: 6, QueueLen: 7,
		QueueCap: 8, QueueHighWater: 9, Draining: true, Requests: 10,
		ServiceCost: 11, ServiceLoadSum: 12, DroppedLoad: 13,
		DroppedServiceLoad: 14, Epochs: 15, Reconfigs: 16, MaxEdgeLoad: 17,
		SnapshotSeq: 18,
	}
	got, err := ParseStats(AppendStats(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("got %+v, want %+v", got, s)
	}
}

func TestReconfigRoundTrip(t *testing.T) {
	// Graft names are deliberately not carried on the wire, so the
	// round-trip fixture leaves them empty.
	req := &ReconfigRequest{
		Diff: topo.Diff{
			Remove: []tree.NodeID{3, 9},
			Add: []topo.Graft{
				{Kind: tree.Processor, Bandwidth: 4, Parent: 2},
				{Kind: tree.Bus, Bandwidth: 8, Parent: 0, ParentAdded: 1, SwitchBandwidth: 16},
			},
			SetSwitchBandwidth: []topo.SwitchBandwidth{{Edge: 1, Bandwidth: 32}},
			SetBusBandwidth:    []topo.BusBandwidth{{Node: 5, Bandwidth: 6}},
		},
	}
	got, err := ParseReconfig(AppendReconfig(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("got %+v, want %+v", got, req)
	}

	// Empty diff.
	req2 := &ReconfigRequest{}
	got2, err := ParseReconfig(AppendReconfig(nil, req2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, req2) {
		t.Fatalf("got %+v, want %+v", got2, req2)
	}
}

// The TReconfig flags byte outlived the flavor bit it carried: older
// clients still send bit 0, so a body with flags 1 must parse to exactly
// the diff the same body with flags 0 does, while any other bit is still
// rejected with the typed corrupt-frame error.
func TestReconfigRetiredFlagBit(t *testing.T) {
	body := AppendReconfig(nil, &ReconfigRequest{Diff: topo.Diff{
		Remove:          []tree.NodeID{4},
		SetBusBandwidth: []topo.BusBandwidth{{Node: 1, Bandwidth: 8}},
	}})
	if body[0] != 0 {
		t.Fatalf("flags byte written as %#x, want 0", body[0])
	}
	want, err := ParseReconfig(body)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte(nil), body...)
	legacy[0] = 1
	got, err := ParseReconfig(legacy)
	if err != nil {
		t.Fatalf("flags 1: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags 1 parsed to %+v, flags 0 to %+v", got, want)
	}
	legacy[0] = 2
	if _, err := ParseReconfig(legacy); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("flags 2: got %v, want ErrCorruptFrame", err)
	}
}

func TestSmallBodyRoundTrips(t *testing.T) {
	if c, err := ParseCost(AppendCost(nil, -77)); err != nil || c != -77 {
		t.Fatalf("cost: %d, %v", c, err)
	}
	oe, err := ParseOverloaded(AppendOverloaded(nil, 1500*time.Microsecond, 12, 64))
	if err != nil || oe.RetryAfter != 1500*time.Microsecond || oe.QueueLen != 12 || oe.QueueCap != 64 {
		t.Fatalf("overloaded: %+v, %v", oe, err)
	}
	if !errors.Is(oe, ErrOverloaded) {
		t.Fatal("OverloadedError must match ErrOverloaded")
	}
	re, err := ParseError(AppendError(nil, CodeBusy, "reconfig running"))
	if err != nil || re.Code != CodeBusy || re.Msg != "reconfig running" {
		t.Fatalf("error: %+v, %v", re, err)
	}
	if !errors.Is(re, ErrBusy) {
		t.Fatal("RemoteError{CodeBusy} must match ErrBusy")
	}
	if q, err := ParseQuery(AppendQuery(nil, 12345)); err != nil || q != 12345 {
		t.Fatalf("query: %d, %v", q, err)
	}
	nodes := []tree.NodeID{0, 5, 17}
	gn, err := ParseNodes(AppendNodes(nil, nodes))
	if err != nil || !reflect.DeepEqual(gn, nodes) {
		t.Fatalf("nodes: %v, %v", gn, err)
	}
	sr := &SnapshotResult{Seq: 3, Bytes: 4096, CutStallNs: 777}
	gsr, err := ParseSnapshotResult(AppendSnapshotResult(nil, sr))
	if err != nil || !reflect.DeepEqual(gsr, sr) {
		t.Fatalf("snapshot result: %+v, %v", gsr, err)
	}
	rr := &ReconfigResult{MaxIngestStallNs: 9, DroppedLoad: 8, DroppedServiceLoad: 7}
	grr, err := ParseReconfigResult(AppendReconfigResult(nil, rr))
	if err != nil || !reflect.DeepEqual(grr, rr) {
		t.Fatalf("reconfig result: %+v, %v", grr, err)
	}
	if s, err := ParseString(AppendString(nil, "127.0.0.1:9999")); err != nil || s != "127.0.0.1:9999" {
		t.Fatalf("string: %q, %v", s, err)
	}
	hb := &HandoffBegin{BaseSeq: 10, ImageLen: 1 << 20, NumChunks: 4}
	ghb, err := ParseHandoffBegin(AppendHandoffBegin(nil, hb))
	if err != nil || !reflect.DeepEqual(ghb, hb) {
		t.Fatalf("handoff begin: %+v, %v", ghb, err)
	}
	hc := &HandoffCommit{FinalSeq: 11, Requests: 1000, ServiceCost: 5000}
	ghc, err := ParseHandoffCommit(AppendHandoffCommit(nil, hc))
	if err != nil || !reflect.DeepEqual(ghc, hc) {
		t.Fatalf("handoff commit: %+v, %v", ghc, err)
	}
}

// TestHostileFrames drives the frame decoder with adversarial inputs;
// every rejection must be a typed sentinel, never a panic.
func TestHostileFrames(t *testing.T) {
	good := AppendFrame(nil, TIngest, 7, AppendIngestBody(nil, 0, randEvents(rand.New(rand.NewSource(3)), 5)))

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(good); cut++ {
			_, _, err := DecodeFrame(good[:cut])
			if err == nil {
				t.Fatalf("cut=%d: decode of truncated frame succeeded", cut)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("cut=%d: untyped error %v", cut, err)
			}
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), good...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			f, n, err := DecodeFrame(mut)
			if err != nil {
				continue // rejected, fine
			}
			// A surviving flip must have hit only padding-free varint
			// encodings that still checksum — impossible unless the flip
			// round-tripped to an identical frame.
			if n != len(good) || f.Type != TIngest {
				t.Fatalf("trial %d: accepted mutated frame: %+v", trial, f)
			}
		}
	})

	t.Run("oversize-length", func(t *testing.T) {
		hdr := make([]byte, frameHeaderSize)
		binary.LittleEndian.PutUint32(hdr, MaxFramePayload+1)
		if _, _, err := DecodeFrame(hdr); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("reader err = %v, want ErrFrameTooLarge", err)
		}
	})

	t.Run("zero-length", func(t *testing.T) {
		frame := make([]byte, frameHeaderSize)
		if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})

	t.Run("bad-type", func(t *testing.T) {
		f := AppendFrame(nil, Type(200), 1, []byte{1})
		if _, _, err := DecodeFrame(f); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})

	t.Run("lying-event-count", func(t *testing.T) {
		// Claim 1<<19 events with a near-empty body: the count bound must
		// reject before allocating.
		body := binary.AppendUvarint(nil, 0)             // budget
		body = binary.AppendUvarint(body, uint64(1<<19)) // count
		if _, _, err := ParseIngestBody(body, nil); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		body := AppendCost(nil, 5)
		body = append(body, 0xFF)
		if _, err := ParseCost(body); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
	})

	t.Run("hostile-bodies", func(t *testing.T) {
		// Every parse entry point on random garbage: typed error or clean
		// success, never a panic.
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 500; trial++ {
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			parseAll(b)
		}
	})
}

// parseAll runs every body parser over b (panics bubble to the test).
func parseAll(b []byte) {
	ParseIngestBody(b, nil)
	ParseTailBody(b, nil)
	ParseCost(b)
	ParseOverloaded(b)
	ParseError(b)
	ParseQuery(b)
	ParseNodes(b)
	ParseStats(b)
	ParseSnapshotResult(b)
	ParseReconfig(b)
	ParseReconfigResult(b)
	ParseString(b)
	ParseHandoffBegin(b)
	ParseHandoffCommit(b)
	ParseMsgStats(b)
}
