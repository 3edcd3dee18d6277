// The compact binary codec of the wire layer (DESIGN.md §11): intervals
// delta-coded against a reference range. The text form ("A B" in base 10,
// MarshalText) spends ~2.4 bits per bit of bound plus two full magnitudes
// per interval; this codec spends one byte-aligned magnitude per *delta*
// from the reference — and the protocol's intervals hug their references.
// A fold's end is pinned at the coordinator's copy end (often the root
// end), a retire is [B, B), a reply usually echoes the request — so the
// common deltas are zero and encode in one byte.
//
// The encoding of one interval [A, B) against a reference [RA, RB) is two
// signed bignums, dA = A - RA and dB = RB - B, each as a uvarint header
// (magnitude byte count shifted left once, sign in the low bit) followed
// by the big-endian magnitude. The header-first layout is what lets a
// decoder enforce a width cap BEFORE allocating or reading a single
// magnitude byte — the same reject-before-materialize discipline as the
// coordinator boundary's MaxIntervalBits check.
//
// Any interval round-trips against any reference, bound for bound — empty
// intervals keep their exact (unequal-but-empty) bounds, negative deltas
// cover intervals outside the reference — so the codec agrees with the
// text form on every input, not merely up to set equality.
package interval

import (
	"encoding/binary"
	"fmt"
	"math/big"
)

// MaxDeltaBits is the default width cap of DecodeDelta: the largest bit
// length either decoded bound's delta may claim before the decoder rejects
// the input unread. Node numbers grow factorially — 500! is ~3700 bits —
// so a mebibit of headroom accepts any plausible instance while refusing
// to materialize a hostile multi-megabyte bignum.
const MaxDeltaBits = 1 << 20

// AppendDelta appends the compact binary encoding of iv, delta-coded
// against the reference interval ref, and returns the extended slice. The
// encoding is two signed bignums, A-ref.A and ref.B-B; an interval equal
// to its reference is two bytes. Decode with DecodeDelta under the same
// reference. ref is typically the root interval both ends of a connection
// pinned at negotiation time; any reference (including the zero interval,
// which encodes absolute bounds) round-trips every interval exactly.
func (iv Interval) AppendDelta(dst []byte, ref Interval) []byte {
	var scratch big.Int
	dst = appendDelta(dst, iv.a, ref.a, &scratch)
	return appendDelta(dst, ref.b, iv.b, &scratch)
}

// appendDelta appends the signed number x-y. A word-sized difference is
// encoded straight from the machine word; otherwise it is formed in d.
func appendDelta(dst []byte, x, y Num, d *big.Int) []byte {
	if x.b == nil && y.b == nil {
		if v := x.w - y.w; !overflowSub(x.w, y.w, v) {
			return appendSigned(dst, NumInt64(v))
		}
	}
	switch {
	case x.b != nil && y.b != nil:
		d.Sub(x.b, y.b)
	case x.b != nil:
		d.Sub(x.b, d.SetInt64(y.w))
	case y.b != nil:
		d.Sub(d.SetInt64(x.w), y.b)
	case x.w >= y.w:
		d.SetUint64(uint64(x.w) - uint64(y.w))
	default:
		d.Neg(d.SetUint64(uint64(y.w) - uint64(x.w)))
	}
	if d.IsInt64() {
		return appendSigned(dst, NumInt64(d.Int64()))
	}
	h := uint64((d.BitLen()+7)/8) << 1
	if d.Sign() < 0 {
		h |= 1
	}
	dst = binary.AppendUvarint(dst, h)
	start := len(dst)
	dst = append(dst, make([]byte, h>>1)...)
	d.FillBytes(dst[start:])
	return dst
}

// DecodeDelta decodes an interval produced by AppendDelta under the same
// reference, returning the interval and the number of bytes consumed.
// maxBits caps the bit width of either bound's delta — a claim beyond it
// is rejected from the header alone, before any magnitude is read or
// allocated; zero or negative means MaxDeltaBits.
func DecodeDelta(data []byte, ref Interval, maxBits int) (Interval, int, error) {
	if maxBits <= 0 {
		maxBits = MaxDeltaBits
	}
	da, n, err := decodeSigned(data, maxBits)
	if err != nil {
		return Interval{}, 0, fmt.Errorf("interval: delta beginning: %w", err)
	}
	db, m, err := decodeSigned(data[n:], maxBits)
	if err != nil {
		return Interval{}, 0, fmt.Errorf("interval: delta end: %w", err)
	}
	// A zero delta shares the reference's bound; the others are fresh.
	iv := Interval{a: ref.a, b: ref.b}
	if da.Sign() != 0 {
		iv.a = *da.Add(da, ref.a)
	}
	if db.Sign() != 0 {
		iv.b = *db.Sub(ref.b, db)
	}
	return iv, n + m, nil
}

// appendSigned appends x as uvarint(byteLen<<1 | sign) + magnitude
// bytes (big-endian, minimal). Zero is the single byte 0x00.
func appendSigned(dst []byte, x Num) []byte {
	h := uint64((x.BitLen()+7)/8) << 1
	if x.Sign() < 0 {
		h |= 1
	}
	dst = binary.AppendUvarint(dst, h)
	return x.appendBytes(dst)
}

// decodeSigned reverses appendSigned, rejecting headers whose claimed
// magnitude exceeds maxBits before touching the magnitude.
func decodeSigned(data []byte, maxBits int) (Num, int, error) {
	var x Num
	h, hn := binary.Uvarint(data)
	if hn <= 0 {
		return x, 0, fmt.Errorf("truncated or oversized header")
	}
	// Vet the claimed byte count in uint64 space: converting first would
	// let a 2^63-scale claim wrap negative and slip past both checks.
	if h>>1 > (uint64(maxBits)+7)/8 {
		return x, 0, fmt.Errorf("magnitude of %d bytes exceeds %d bits", h>>1, maxBits)
	}
	n := int(h >> 1)
	if len(data)-hn < n {
		return x, 0, fmt.Errorf("truncated magnitude: want %d bytes, have %d", n, len(data)-hn)
	}
	x.setBytes(data[hn : hn+n])
	if h&1 != 0 {
		if x.Sign() == 0 {
			return x, 0, fmt.Errorf("negative zero")
		}
		x.neg(x)
	}
	return x, hn + n, nil
}
