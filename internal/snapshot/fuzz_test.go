package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzSnapshotDecode feeds the decoder real snapshot images of every
// version plus truncations, bit-flips and junk. The contract under
// attack: corrupt input is rejected with ErrCorrupt (never a panic, and no
// allocation beyond the bound the package comment states — hostile length
// prefixes and counts are capped before they are trusted), and anything
// Decode does accept re-encodes canonically (Encode∘Decode is idempotent).
func FuzzSnapshotDecode(f *testing.F) {
	img := readGolden(f, "mkstate3-v3.snap")
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:headerSize])
	flipped := bytes.Clone(img)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("HBNSNAP1 not really"))
	// A v3 body wearing a v1 header: the version check must refuse it
	// before the body layout is trusted.
	downgraded := bytes.Clone(img)
	binary.LittleEndian.PutUint32(downgraded[len(magic):], 1)
	f.Add(downgraded)
	// v2 images a cluster wrote: one carrying the retired state flag bit
	// 0 and one with the full-history decay-shift slot 0, both of which
	// Decode accepts, drops and re-encodes as v3.
	f.Add(readGolden(f, "legacy-v2-flag0.snap"))
	f.Add(readGolden(f, "legacy-v2-slot0.snap"))
	// The dense v3 golden: its section counts take 1, 2 and 3 bytes and
	// its frequencies up to 6, the widths the one-scan table writer closes
	// gaps for.
	f.Add(readGolden(f, "dense-v3.snap"))
	// v4 images: the plain one, and one cut while an epoch pass was in
	// flight, whose pending-pass record follows the epoch log.
	f.Add(readGolden(f, "mkstate3-v4.snap"))
	f.Add(readGolden(f, "pending-v4.snap"))
	// A tracker cell in a section whose shard does not own its object,
	// which Decode rejects.
	f.Add(withForeignTrackerCell(f, img))
	// A v2 image whose last-fold counts stand above its recorded counts,
	// which Decode rejects.
	f.Add(readGolden(f, "dense.snap"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		re := Encode(st)
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if !bytes.Equal(re, Encode(st2)) {
			t.Fatalf("encode not idempotent")
		}
	})
}
