package interval

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Num is an exact integer node number. Every tree the simulator, the
// proofs and the tenants run has fewer than 2^63 leaves, so a Num holds
// its value in an int64 and spills to a *big.Int only when a value leaves
// the int64 range (ta056's 50! needs 215 bits). The zero value is 0.
//
// The representation is canonical: a Num is spilled exactly when its
// value lies outside [math.MinInt64, math.MaxInt64], so two word-sized
// operands compare, add and split with machine instructions and never
// touch math/big.
//
// A Num is a value, and copying it is free; a copy of a spilled Num
// shares its big.Int. The pointer-receiver forms (Set, Add, Sub, Mul64,
// MulQuo, MulQuoCeil, SetWidth) write the result into the receiver, reusing its spilled storage, so the spill path allocates no
// more than hand-held scratch big.Ints would. Call them only on a Num the
// caller owns: a local, a scratch field, or a field that is only ever
// written through these forms (Set deep-copies its operand).
type Num struct {
	w int64    // the value, when b is nil
	b *big.Int // the value, when it does not fit an int64
}

// NumInt64 returns the Num holding v.
func NumInt64(v int64) Num { return Num{w: v} }

// NumBig returns the Num holding x; nil reads as zero. x is copied.
func NumBig(x *big.Int) Num {
	var z Num
	if x != nil {
		z.setBig(x)
	}
	return z
}

// Big returns x as a fresh *big.Int.
func (x Num) Big() *big.Int {
	z := new(big.Int)
	x.fill(z)
	return z
}

// fill sets z to x. It is Big's body, kept apart so that Big inlines and
// a caller that does not keep the result holds it on its stack.
func (x Num) fill(z *big.Int) {
	if x.b != nil {
		z.Set(x.b)
	} else {
		z.SetInt64(x.w)
	}
}

// Int64 returns x as an int64; the result is undefined (as for
// big.Int.Int64) when x does not fit.
func (x Num) Int64() int64 {
	if x.b != nil {
		return x.b.Int64()
	}
	return x.w
}

// Sign returns -1, 0 or +1 as x is negative, zero or positive.
func (x Num) Sign() int {
	if x.b != nil {
		return x.b.Sign()
	}
	switch {
	case x.w < 0:
		return -1
	case x.w > 0:
		return 1
	}
	return 0
}

// Cmp compares x and y: -1 if x < y, 0 if equal, +1 if x > y.
func (x Num) Cmp(y Num) int {
	if x.b != nil || y.b != nil {
		return x.cmpSpilled(y)
	}
	if x.w < y.w {
		return -1
	}
	if x.w > y.w {
		return 1
	}
	return 0
}

// cmpSpilled is Cmp when at least one operand is spilled; kept apart so
// that the word case inlines.
func (x Num) cmpSpilled(y Num) int {
	switch {
	case x.b != nil && y.b != nil:
		return x.b.Cmp(y.b)
	case x.b != nil:
		// A spilled value lies beyond every int64, on its sign's side.
		return x.b.Sign()
	}
	return -y.b.Sign()
}

// BitLen returns the bit length of |x|, as big.Int.BitLen.
func (x Num) BitLen() int {
	if x.b != nil {
		return x.b.BitLen()
	}
	return bits.Len64(absU(x.w))
}

// String renders x in base 10, as big.Int.String.
func (x Num) String() string {
	if x.b != nil {
		return x.b.String()
	}
	return strconv.FormatInt(x.w, 10)
}

// appendBytes appends the minimal big-endian magnitude of |x| (no bytes
// for zero), as big.Int.Bytes.
func (x Num) appendBytes(dst []byte) []byte {
	if x.b != nil {
		start := len(dst)
		dst = append(dst, make([]byte, (x.b.BitLen()+7)/8)...)
		x.b.FillBytes(dst[start:])
		return dst
	}
	u := absU(x.w)
	for n := (bits.Len64(u) + 7) / 8; n > 0; n-- {
		dst = append(dst, byte(u>>(8*(n-1))))
	}
	return dst
}

// setBytes sets z to the non-negative value of the big-endian magnitude
// buf (leading zero bytes allowed), as big.Int.SetBytes.
func (z *Num) setBytes(buf []byte) *Num {
	for len(buf) > 0 && buf[0] == 0 {
		buf = buf[1:]
	}
	if len(buf) < 8 || len(buf) == 8 && buf[0] < 0x80 {
		var u int64
		for _, c := range buf {
			u = u<<8 | int64(c)
		}
		z.w, z.b = u, nil
		return z
	}
	z.spill().SetBytes(buf)
	return z
}

// Set sets z to x, copying a spilled value into z's own storage.
func (z *Num) Set(x Num) *Num {
	if x.b == nil {
		z.w, z.b = x.w, nil
	} else if z.b != x.b {
		z.spill().Set(x.b)
	}
	return z
}

// Add sets z to x+y.
func (z *Num) Add(x, y Num) *Num {
	switch {
	case x.b == nil && y.b == nil:
		if s := x.w + y.w; !overflowAdd(x.w, y.w, s) {
			z.w, z.b = s, nil
			return z
		}
	case x.b != nil && y.b != nil:
		z.spill().Add(x.b, y.b)
		return z.norm()
	case x.b != nil && z.b != x.b:
		z.spill().SetInt64(y.w)
		z.b.Add(x.b, z.b)
		return z.norm()
	case y.b != nil && z.b != y.b:
		z.spill().SetInt64(x.w)
		z.b.Add(z.b, y.b)
		return z.norm()
	case x.b != nil && bits.UintSize == 64:
		addWord(z.b, y.w) // z.b is x.b
		return z.norm()
	case y.b != nil && bits.UintSize == 64:
		addWord(z.b, x.w) // z.b is y.b
		return z.norm()
	}
	return z.slow(x, y, (*big.Int).Add)
}

// Sub sets z to x-y.
func (z *Num) Sub(x, y Num) *Num {
	switch {
	case x.b == nil && y.b == nil:
		if d := x.w - y.w; !overflowSub(x.w, y.w, d) {
			z.w, z.b = d, nil
			return z
		}
	case x.b != nil && y.b != nil:
		z.spill().Sub(x.b, y.b)
		return z.norm()
	case x.b != nil && z.b != x.b:
		z.spill().SetInt64(y.w)
		z.b.Sub(x.b, z.b)
		return z.norm()
	case y.b != nil && z.b != y.b:
		z.spill().SetInt64(x.w)
		z.b.Sub(z.b, y.b)
		return z.norm()
	case x.b != nil && y.w != math.MinInt64 && bits.UintSize == 64:
		addWord(z.b, -y.w) // z.b is x.b
		return z.norm()
	case y.b != nil && bits.UintSize == 64:
		addWord(z.b.Neg(z.b), x.w) // z.b is y.b
		return z.norm()
	}
	return z.slow(x, y, (*big.Int).Sub)
}

// addWord adds v to the spilled z in place, word by word: |z| > 2^63 ≥
// |v|, so the sign of z never changes. 64-bit words only.
func addWord(z *big.Int, v int64) {
	mag := z.Bits()
	u := uint(absU(v))
	if (v < 0) == (z.Sign() < 0) {
		for i := 0; u != 0 && i < len(mag); i++ {
			s, c := bits.Add(uint(mag[i]), u, 0)
			mag[i], u = big.Word(s), c
		}
		if u != 0 {
			mag = append(mag, big.Word(u))
		}
	} else {
		for i := 0; u != 0 && i < len(mag); i++ {
			d, b := bits.Sub(uint(mag[i]), u, 0)
			mag[i], u = big.Word(d), b
		}
	}
	neg := z.Sign() < 0
	z.SetBits(mag)
	if neg {
		z.Neg(z)
	}
}

// slow is the rare transition of Add and Sub — a word-sized overflow, or
// a mixed pair whose spilled operand is the receiver — on fresh copies.
func (z *Num) slow(x, y Num, op func(z, x, y *big.Int) *big.Int) *Num {
	op(z.spill(), x.Big(), y.Big())
	return z.norm()
}

// neg sets z to -x.
func (z *Num) neg(x Num) *Num {
	if x.b == nil {
		if x.w != math.MinInt64 {
			z.w, z.b = -x.w, nil
			return z
		}
		z.spill().SetInt64(x.w)
		z.b.Neg(z.b)
		return z
	}
	z.spill().Neg(x.b)
	return z.norm()
}

// Mul64 sets z to x·k.
func (z *Num) Mul64(x Num, k int64) *Num {
	neg := (x.Sign() < 0) != (k < 0)
	if x.b == nil {
		hi, lo := bits.Mul64(absU(x.w), absU(k))
		if hi == 0 && (lo <= math.MaxInt64 || neg && lo == 1<<63) {
			if neg {
				lo = -lo
			}
			z.w, z.b = int64(lo), nil
			return z
		}
	}
	if bits.UintSize != 64 {
		return z.slow(x, NumInt64(k), (*big.Int).Mul)
	}
	var xb wordBuf
	z.spill().SetBits(mulWords(z.b.Bits(), x.words(&xb), uint(absU(k))))
	if neg {
		z.b.Neg(z.b)
	}
	return z.norm()
}

// MulQuo sets z to ⌊x·m/d⌋ for d > 0: the proportional split of a
// length. A word-sized product goes through a 128-bit intermediate, so
// splitting a word-sized interval never spills.
func (z *Num) MulQuo(x Num, m, d int64) *Num { return z.mulQuo(x, m, d, false) }

// MulQuoCeil sets z to ⌈x·m/d⌉ for d > 0.
func (z *Num) MulQuoCeil(x Num, m, d int64) *Num { return z.mulQuo(x, m, d, true) }

func (z *Num) mulQuo(x Num, m, d int64, ceil bool) *Num {
	if d <= 0 {
		panic("interval: MulQuo by a non-positive divisor")
	}
	if x.b == nil && x.w >= 0 && m >= 0 {
		hi, lo := bits.Mul64(uint64(x.w), uint64(m))
		if ceil {
			var c uint64
			lo, c = bits.Add64(lo, uint64(d-1), 0)
			hi += c
		}
		if hi < uint64(d) {
			if q, _ := bits.Div64(hi, lo, uint64(d)); q <= math.MaxInt64 {
				z.w, z.b = int64(q), nil
				return z
			}
		}
	}
	if x.Sign() < 0 || m < 0 || bits.UintSize != 64 {
		// The general big.Int form, on fresh copies.
		num := new(big.Int).Mul(x.Big(), big.NewInt(m))
		if ceil {
			num.Add(num, big.NewInt(d-1))
		}
		z.spill().Div(num, big.NewInt(d))
		return z.norm()
	}
	// The spill path of the split: x·m and the division by d run word by
	// word in z's own storage, with no big.Int temporaries.
	var xb wordBuf
	buf := mulWords(z.spill().Bits(), x.words(&xb), uint(m))
	if ceil {
		add := uint(d - 1)
		for i := 0; add != 0 && i < len(buf); i++ {
			s, c := bits.Add(uint(buf[i]), add, 0)
			buf[i], add = big.Word(s), c
		}
	}
	var r uint
	for i := len(buf) - 1; i >= 0; i-- {
		var q uint
		q, r = bits.Div(r, uint(buf[i]), uint(d))
		buf[i] = big.Word(q)
	}
	z.b.SetBits(buf)
	return z.norm()
}

// mulWords writes the magnitude x·k into dst's storage (growing it by
// one word when needed) and returns it. dst may alias x.
func mulWords(dst, x []big.Word, k uint) []big.Word {
	if cap(dst) < len(x)+1 {
		dst = make([]big.Word, len(x)+1)
	}
	dst = dst[:len(x)+1]
	var carry uint
	for i, w := range x {
		hi, lo := bits.Mul(uint(w), k)
		s, c := bits.Add(lo, carry, 0)
		dst[i] = big.Word(s)
		carry = hi + c
	}
	dst[len(x)] = big.Word(carry)
	return dst
}

// Ratio returns x/y as the float64 nearest the exact quotient taken at
// big.Float precision (0 when y is zero): the redundancy rate's one
// division.
func Ratio(x, y Num) float64 {
	if y.Sign() == 0 {
		return 0
	}
	v, _ := new(big.Float).Quo(new(big.Float).SetInt(x.Big()), new(big.Float).SetInt(y.Big())).Float64()
	return v
}

// spill returns z's big.Int storage, allocating it on first use. The
// result's value is unspecified until the caller writes it.
func (z *Num) spill() *big.Int {
	if z.b == nil {
		z.b = new(big.Int)
	}
	return z.b
}

// setBig sets z to x, copying.
func (z *Num) setBig(x *big.Int) {
	if x.IsInt64() {
		z.w, z.b = x.Int64(), nil
		return
	}
	z.spill().Set(x)
}

// norm restores the canonical form after a result was written to z.b.
func (z *Num) norm() *Num {
	if z.b.IsInt64() {
		z.w, z.b = z.b.Int64(), nil
	}
	return z
}

// wordBuf backs the words of a word-sized Num.
type wordBuf [64 / bits.UintSize]big.Word

// words returns |x|'s little-endian words, read-only; buf backs them
// when x is word-sized.
func (x Num) words(buf *wordBuf) []big.Word {
	if x.b != nil {
		return x.b.Bits()
	}
	u := absU(x.w)
	for i := range buf {
		buf[i] = big.Word(u)
		u >>= bits.UintSize - 1
		u >>= 1
	}
	return buf[:]
}

func absU(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

func overflowAdd(x, y, s int64) bool { return (x >= 0) == (y >= 0) && (s >= 0) != (x >= 0) }

func overflowSub(x, y, d int64) bool { return (x >= 0) != (y >= 0) && (d >= 0) != (x >= 0) }

// Clone returns a copy of x that owns its storage: the form a long-lived
// field takes a value in, before writing it in place.
func (x Num) Clone() Num {
	if x.b == nil {
		return x
	}
	return Num{b: new(big.Int).Set(x.b)}
}
