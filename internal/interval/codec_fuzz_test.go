package interval

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzDeltaCodec mirrors FuzzCoordinatorBoundary's discipline for the wire
// codec: arbitrary interval/reference bound pairs must round-trip bound
// for bound and agree with the text form, and arbitrary decoder input must
// never panic or accept a magnitude beyond the width cap.
func FuzzDeltaCodec(f *testing.F) {
	huge := new(big.Int).Lsh(big.NewInt(1), 214).Bytes()
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, false, false)
	f.Add([]byte{5}, []byte{9}, []byte{0}, huge, false, false)
	f.Add(huge, huge, huge, huge, true, false)
	f.Add([]byte{1, 2, 3}, []byte{4}, []byte{7}, []byte{1, 0, 0}, false, true)
	// Bounds straddling 2^63, where a node number leaves the machine word:
	// [2^63-1, 2^63+1) against [0, 2^63), and the mirror image below
	// -2^63 with deltas that overflow an int64 on their own.
	below, at, above := new(big.Int).Lsh(big.NewInt(1), 63), new(big.Int).Lsh(big.NewInt(1), 63), new(big.Int).Lsh(big.NewInt(1), 63)
	below.Sub(below, big.NewInt(1))
	above.Add(above, big.NewInt(1))
	f.Add(below.Bytes(), above.Bytes(), []byte{}, at.Bytes(), false, false)
	f.Add(at.Bytes(), below.Bytes(), below.Bytes(), at.Bytes(), true, false)
	f.Add(above.Bytes(), at.Bytes(), at.Bytes(), below.Bytes(), true, true)
	f.Fuzz(func(t *testing.T, aB, bB, raB, rbB []byte, negA, negB bool) {
		if len(aB) > 64 || len(bB) > 64 || len(raB) > 64 || len(rbB) > 64 {
			return
		}
		a, b := new(big.Int).SetBytes(aB), new(big.Int).SetBytes(bB)
		if negA {
			a.Neg(a)
		}
		if negB {
			b.Neg(b)
		}
		iv := New(a, b)
		ref := New(new(big.Int).SetBytes(raB), new(big.Int).SetBytes(rbB))

		enc := iv.AppendDelta(nil, ref)
		got, n, err := DecodeDelta(enc, ref, 0)
		if err != nil {
			t.Fatalf("decode own encoding of %s vs %s: %v", iv, ref, err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		// Bound-exact agreement with the text form: marshal both through
		// MarshalText and compare the bytes, so the binary codec can never
		// drift from the canonical representation, empties included.
		wantText, _ := iv.MarshalText()
		gotText, _ := got.MarshalText()
		if !bytes.Equal(wantText, gotText) {
			t.Fatalf("codec disagrees with text form: %q vs %q", gotText, wantText)
		}
		// Re-encoding the decoded value is byte-identical (canonical form).
		if re := got.AppendDelta(nil, ref); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding differs: %x vs %x", re, enc)
		}
	})
}

// FuzzDeltaDecode feeds raw bytes to the decoder: it must never panic, and
// every accepted decode must re-encode within the cap.
func FuzzDeltaDecode(f *testing.F) {
	f.Add([]byte{0x00, 0x00}, int64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F}, int64(128))
	f.Add([]byte{0x04, 0xDE, 0xAD, 0x02, 0xBE}, int64(1<<20))
	// 8-byte magnitudes at 2^63 ± 1, one positive and one negative.
	f.Add([]byte{0x10, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x11, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, int64(64))
	f.Add([]byte{0x11, 0x80, 0, 0, 0, 0, 0, 0, 0x01, 0x10, 0x80, 0, 0, 0, 0, 0, 0, 0}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, maxBits int64) {
		if maxBits < 0 || maxBits > 1<<22 {
			return
		}
		ref := FromInt64(3, 1<<40)
		iv, n, err := DecodeDelta(data, ref, int(maxBits))
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("claimed %d consumed bytes of %d", n, len(data))
		}
		cap := int(maxBits)
		if cap == 0 {
			cap = MaxDeltaBits
		}
		// The accepted deltas must honor the cap the decoder was given.
		var d big.Int
		if d.Sub(iv.A(), ref.A()); d.BitLen() > cap+8 {
			t.Fatalf("decoded delta of %d bits under a %d-bit cap", d.BitLen(), cap)
		}
	})
}
