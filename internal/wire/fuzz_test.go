package wire

import (
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"
)

// FuzzWireDecode throws arbitrary bytes at the frame decoder and every
// body parser. The contract under test: any rejection is a typed
// sentinel (ErrBadHeader / ErrFrameTooLarge / ErrCorruptFrame /
// io.ErrUnexpectedEOF), never a panic, and an accepted frame re-encodes
// bounded by the input (no over-allocation from lying length prefixes).
func FuzzWireDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(99))

	// Real frames of each flavor.
	events := randEvents(rng, 20)
	seeds := [][]byte{
		AppendFrame(nil, TIngest, 1, AppendIngestBody(nil, 250*time.Millisecond, events)),
		AppendFrame(nil, TIngestOK, 2, AppendCost(nil, 12345)),
		AppendFrame(nil, TOverloaded, 3, AppendOverloaded(nil, time.Millisecond, 63, 64)),
		AppendFrame(nil, TExpired, 4, nil),
		AppendFrame(nil, TError, 5, AppendError(nil, CodeBusy, "busy")),
		AppendFrame(nil, TQuery, 6, AppendQuery(nil, 77)),
		AppendFrame(nil, TStatsOK, 7, AppendStats(nil, &DaemonStats{AppliedSeq: 9, Requests: 10})),
		AppendFrame(nil, TSnapshotOK, 8, AppendSnapshotResult(nil, &SnapshotResult{Seq: 2, Bytes: 100})),
		AppendFrame(nil, TReconfig, 9, AppendReconfig(nil, &ReconfigRequest{})),
		AppendFrame(nil, TTail, 10, AppendEvents(nil, events)),
		AppendFrame(nil, THandoffCommit, 11, AppendHandoffCommit(nil, &HandoffCommit{FinalSeq: 3, Requests: 4, ServiceCost: 5})),
		AppendFrame(nil, TMsgStats, 12, nil),
		AppendFrame(nil, TMsgStatsOK, 13, AppendMsgStats(nil, fuzzMsgStats(rng))),
	}
	for _, s := range seeds {
		f.Add(s)
		// Truncations at awkward boundaries.
		for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize, frameHeaderSize + 1, len(s) - 1} {
			if cut > 0 && cut < len(s) {
				f.Add(s[:cut])
			}
		}
		// Bit flips in header and payload.
		for i := 0; i < 4; i++ {
			mut := append([]byte(nil), s...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(fr.Body) > n {
			t.Fatalf("body %d bytes from a %d-byte frame", len(fr.Body), n)
		}
		// Accepted frames must survive a re-encode/decode round trip
		// (bytes may differ only if the input used a non-minimal varint).
		re := AppendFrame(nil, fr.Type, fr.Seq, fr.Body)
		fr2, n2, err := DecodeFrame(re)
		if err != nil || n2 != len(re) || fr2.Type != fr.Type || fr2.Seq != fr.Seq || string(fr2.Body) != string(fr.Body) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
		// Body parsers on the decoded payload: typed errors only.
		parseAll(fr.Body)
	})
}
