package interval

import (
	"bytes"
	"math"
	"math/big"
	"testing"
)

// numOperand decodes a fuzzer-chosen operand around the int64 edges: an
// offset from one of the anchors 0, ±2^63 (and ±2^63 ∓ 1), ±2^64 and
// ±2^200, so every operation crosses the word/spill boundary both ways.
func numOperand(anchor uint8, off int64) *big.Int {
	anchors := []*big.Int{
		big.NewInt(0),
		new(big.Int).Lsh(big.NewInt(1), 63),
		big.NewInt(math.MaxInt64),
		big.NewInt(math.MinInt64),
		new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 63)),
		new(big.Int).Lsh(big.NewInt(1), 64),
		new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 64)),
		new(big.Int).Lsh(big.NewInt(1), 200),
		new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 200)),
	}
	return new(big.Int).Add(anchors[int(anchor)%len(anchors)], big.NewInt(off))
}

// checkNum holds a Num to the big.Int it must equal, canonical form
// included: spilled exactly when the value leaves the int64 range.
func checkNum(t *testing.T, op string, got Num, want *big.Int) {
	t.Helper()
	if got.Big().Cmp(want) != 0 || got.String() != want.String() {
		t.Fatalf("%s = %s, want %s", op, got, want)
	}
	if (got.b == nil) != want.IsInt64() {
		t.Fatalf("%s = %s: spilled=%v, want spilled=%v", op, got, got.b != nil, !want.IsInt64())
	}
}

// FuzzNumAgainstBig checks every operation Num offers against math/big on
// operands drawn around ±2^63 and beyond: compare, sign, bit length,
// decimal text, minimal big-endian bytes, Set, Add, Sub, neg, Mul64,
// MulQuo, MulQuoCeil and Ratio — each in a fresh receiver and in place
// over a receiver that already holds a spilled value.
func FuzzNumAgainstBig(f *testing.F) {
	f.Add(uint8(1), int64(-1), uint8(1), int64(0), int64(3), int64(7))
	f.Add(uint8(2), int64(0), uint8(2), int64(1), int64(2), int64(1))
	f.Add(uint8(3), int64(0), uint8(0), int64(-1), int64(-1), int64(1))
	f.Add(uint8(7), int64(12345), uint8(0), int64(99), int64(1<<40), int64(1<<40+1))
	f.Add(uint8(0), int64(math.MaxInt64), uint8(0), int64(math.MaxInt64), int64(math.MaxInt64), int64(2))
	f.Add(uint8(4), int64(0), uint8(3), int64(0), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(uint8(5), int64(-1), uint8(6), int64(1), int64(0), int64(3))
	f.Fuzz(func(t *testing.T, xa uint8, xo int64, ya uint8, yo int64, m, d int64) {
		xb, yb := numOperand(xa, xo), numOperand(ya, yo)
		x, y := NumBig(xb), NumBig(yb)
		checkNum(t, "NumBig(x)", x, xb)
		if x.Cmp(y) != xb.Cmp(yb) || x.Sign() != xb.Sign() || x.BitLen() != xb.BitLen() {
			t.Fatalf("Cmp/Sign/BitLen of %s, %s disagree with math/big", xb, yb)
		}
		if got := x.appendBytes([]byte{0xAA}); !bytes.Equal(got, append([]byte{0xAA}, xb.Bytes()...)) {
			t.Fatalf("appendBytes(%s) = %x, want %x", xb, got[1:], xb.Bytes())
		}
		var back Num
		checkNum(t, "setBytes", *back.setBytes(append([]byte{0, 0}, xb.Bytes()...)), new(big.Int).Abs(xb))
		if xb.IsInt64() {
			checkNum(t, "NumInt64", NumInt64(xb.Int64()), xb)
		}

		// Every in-place form twice: into a zero receiver, and over a
		// receiver that already owns spilled storage.
		for _, seed := range []Num{{}, NumBig(numOperand(7, 1))} {
			z := seed
			z.b = nil
			if seed.b != nil {
				z = NumBig(seed.Big())
			}
			checkNum(t, "Set", *z.Set(x), xb)
			checkNum(t, "Add", *z.Add(x, y), new(big.Int).Add(xb, yb))
			checkNum(t, "Sub", *z.Sub(x, y), new(big.Int).Sub(xb, yb))
			checkNum(t, "neg", *z.neg(x), new(big.Int).Neg(xb))
			checkNum(t, "Mul64", *z.Mul64(x, m), new(big.Int).Mul(xb, big.NewInt(m)))
			if d > 0 {
				prod := new(big.Int).Mul(xb, big.NewInt(m))
				checkNum(t, "MulQuo", *z.MulQuo(x, m, d), new(big.Int).Div(prod, big.NewInt(d)))
				ceil := new(big.Int).Neg(new(big.Int).Div(new(big.Int).Neg(prod), big.NewInt(d)))
				checkNum(t, "MulQuoCeil", *z.MulQuoCeil(x, m, d), ceil)
			}
			// Aliased operands: the receiver is also an input.
			z.Set(x)
			checkNum(t, "Add(z, y)", *z.Add(z, y), new(big.Int).Add(xb, yb))
			z.Set(y)
			checkNum(t, "Add(x, z)", *z.Add(x, z), new(big.Int).Add(xb, yb))
			z.Set(x)
			checkNum(t, "Sub(z, y)", *z.Sub(z, y), new(big.Int).Sub(xb, yb))
			z.Set(y)
			checkNum(t, "Sub(x, z)", *z.Sub(x, z), new(big.Int).Sub(xb, yb))
			z.Set(x)
			if d > 0 && m >= 0 && xb.Sign() >= 0 {
				checkNum(t, "MulQuo(z)", *z.MulQuo(z, m, d), new(big.Int).Div(new(big.Int).Mul(xb, big.NewInt(m)), big.NewInt(d)))
			}
		}
		if yb.Sign() != 0 {
			want, _ := new(big.Float).Quo(new(big.Float).SetInt(xb), new(big.Float).SetInt(yb)).Float64()
			if got := Ratio(x, y); got != want {
				t.Fatalf("Ratio(%s, %s) = %v, want %v", xb, yb, got, want)
			}
		}
	})
}

// TestNumWordPathAllocs: arithmetic between word-sized values never
// touches the heap, and a spilled receiver reuses its storage.
func TestNumWordPathAllocs(t *testing.T) {
	x, y := NumInt64(1<<40), NumInt64(12345)
	var z Num
	if n := testing.AllocsPerRun(100, func() {
		z.Add(x, y)
		z.Sub(z, y)
		z.Mul64(z, 3)
		z.MulQuo(x, 1<<40, 1<<40+7)
		z.MulQuoCeil(y, 1<<40, 3)
		_ = z.Cmp(y)
	}); n != 0 {
		t.Fatalf("word-path arithmetic allocates %v times per run", n)
	}
	big1 := NumBig(new(big.Int).Lsh(big.NewInt(1), 214))
	big2 := NumBig(new(big.Int).Lsh(big.NewInt(3), 200))
	var s, r Num
	s.Set(big1)
	r.Set(big2)
	if n := testing.AllocsPerRun(100, func() {
		s.Set(big1)
		s.Sub(s, big2)
		r.Add(s, y)
		r.Sub(y, s)
		r.Add(r, y)
		r.Sub(r, y)
		r.Sub(y, r)
		s.Mul64(s, 3)
		s.MulQuo(s, 2800, 2801)
		s.MulQuoCeil(big1, 1<<40, 3)
	}); n != 0 {
		t.Fatalf("spill-path arithmetic into owned storage allocates %v times per run", n)
	}
}
