package interval

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// mustRoundTrip encodes iv against ref and decodes it back, asserting
// bound-exact equality (not just set equality: empty intervals must keep
// their bounds so the codec agrees with the text form byte for byte).
func mustRoundTrip(t *testing.T, iv, ref Interval) []byte {
	t.Helper()
	enc := iv.AppendDelta(nil, ref)
	got, n, err := DecodeDelta(enc, ref, 0)
	if err != nil {
		t.Fatalf("DecodeDelta(%s vs ref %s): %v", iv, ref, err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if got.A().Cmp(iv.A()) != 0 || got.B().Cmp(iv.B()) != 0 {
		t.Fatalf("round trip %s vs ref %s: got %s", iv, ref, got)
	}
	return enc
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 214) // Ta056-scale bound
	ref := New(big.NewInt(0), huge)
	cases := []Interval{
		{},                                   // zero value
		FromInt64(0, 0),                      // explicit empty at zero
		FromInt64(5, 5),                      // empty with non-zero bounds
		FromInt64(7, 3),                      // inverted (empty) bounds
		FromInt64(0, 100),                    // prefix of the reference
		FromInt64(-40, -3),                   // entirely below the reference
		New(big.NewInt(123), huge),           // end pinned at ref end
		New(huge, new(big.Int).Lsh(huge, 1)), // entirely above the reference
		ref,                                  // the reference itself
		New(big.NewInt(1), new(big.Int).Sub(huge, big.NewInt(1))),
	}
	for _, iv := range cases {
		mustRoundTrip(t, iv, ref)
		mustRoundTrip(t, iv, Interval{})      // zero reference: absolute bounds
		mustRoundTrip(t, iv, FromInt64(9, 4)) // empty, non-zero reference
	}
}

func TestDeltaCodecSize(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 214)
	ref := New(big.NewInt(0), huge)

	// The reference itself: both deltas are zero, two bytes total.
	if enc := ref.AppendDelta(nil, ref); len(enc) != 2 {
		t.Fatalf("ref vs itself: %d bytes, want 2", len(enc))
	}
	// A steady-state fold [mid, ref.B): one magnitude plus a zero delta —
	// and far smaller than the ~130-byte decimal text form.
	mid := new(big.Int).Rsh(huge, 1)
	fold := New(mid, huge)
	enc := fold.AppendDelta(nil, ref)
	text, _ := fold.MarshalText()
	if len(enc) >= len(text)/3 {
		t.Fatalf("fold encodes to %d bytes, text is %d — expected >3x smaller", len(enc), len(text))
	}
	// Appending extends, never clobbers.
	pre := []byte{0xAA, 0xBB}
	out := fold.AppendDelta(pre, ref)
	if !bytes.Equal(out[:2], pre) {
		t.Fatal("AppendDelta clobbered the prefix")
	}
}

func TestDeltaCodecWidthCap(t *testing.T) {
	ref := FromInt64(0, 1000)
	big1 := new(big.Int).Lsh(big.NewInt(1), 4096)
	iv := New(big1, new(big.Int).Add(big1, big.NewInt(5)))
	enc := iv.AppendDelta(nil, ref)
	// Generous cap: accepted.
	if _, _, err := DecodeDelta(enc, ref, 1<<13); err != nil {
		t.Fatalf("within cap: %v", err)
	}
	// Tight cap: rejected from the header, before the magnitude is read.
	if _, _, err := DecodeDelta(enc, ref, 1024); err == nil {
		t.Fatal("4096-bit delta passed a 1024-bit cap")
	}
	// A header claiming a magnitude far beyond the buffer must fail on the
	// cap (or truncation) without allocating: encode the header by hand.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F} // uvarint ~2^34: ~2^33 bytes claimed
	if _, _, err := DecodeDelta(hostile, ref, 0); err == nil {
		t.Fatal("absurd magnitude claim decoded")
	}
}

// TestDeltaCodecHeaderOverflow: a header claiming ~2^63 magnitude bytes
// must be rejected from the header alone. Converting the claim to int
// first would wrap it negative, slipping past both the width cap and the
// truncation check into a panicking slice expression — a 10-byte frame
// killing the decoding process.
func TestDeltaCodecHeaderOverflow(t *testing.T) {
	ref := FromInt64(0, 1000)
	for _, h := range []uint64{math.MaxUint64, 1 << 63, (1 << 63) + 2} {
		hostile := binary.AppendUvarint(nil, h)
		if _, _, err := DecodeDelta(hostile, ref, 0); err == nil {
			t.Fatalf("overflowing header %#x decoded", h)
		}
	}
}

func TestDeltaCodecRejectsNonCanonical(t *testing.T) {
	ref := FromInt64(0, 10)
	// Negative zero: header 0x01 (zero bytes, sign bit set) twice.
	if _, _, err := DecodeDelta([]byte{0x01, 0x00}, ref, 0); err == nil {
		t.Fatal("negative-zero delta decoded")
	}
	// Truncated magnitude.
	if _, _, err := DecodeDelta([]byte{0x04, 0x01}, ref, 0); err == nil {
		t.Fatal("truncated magnitude decoded")
	}
	// Empty input.
	if _, _, err := DecodeDelta(nil, ref, 0); err == nil {
		t.Fatal("empty input decoded")
	}
}
