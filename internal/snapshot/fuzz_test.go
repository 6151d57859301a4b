package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzSnapshotDecode feeds the decoder real snapshot images plus
// truncations, bit-flips and junk. The contract under attack: corrupt
// input is rejected with ErrCorrupt (never a panic, never an allocation
// larger than a small multiple of the input — hostile length prefixes and
// counts are capped before they are trusted), and anything Decode does
// accept re-encodes canonically (Encode∘Decode is idempotent).
func FuzzSnapshotDecode(f *testing.F) {
	img := Encode(mkState(3))
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:headerSize])
	flipped := bytes.Clone(img)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("HBNSNAP1 not really"))
	// A v2 body wearing a v1 header: the exact-version check must refuse
	// it before the body layout is trusted.
	downgraded := bytes.Clone(img)
	binary.LittleEndian.PutUint32(downgraded[len(magic):], 1)
	f.Add(downgraded)
	// An image carrying the retired state flag bit 0, which Decode accepts
	// and drops.
	f.Add(withStateFlags(img, 1))
	// A full-history image (decay-shift slot 0), which Decode accepts and
	// re-encodes with the slot at 1.
	f.Add(withDecaySlot(img, 0))
	// A dense image: its section counts take 1, 2 and 3 bytes and its
	// frequencies up to 6, the widths the one-scan table writer closes
	// gaps for.
	f.Add(Encode(mkDenseState()))
	// A tracker cell in a section whose shard does not own its object,
	// which Decode rejects.
	f.Add(withForeignTrackerCell(f, img))

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
