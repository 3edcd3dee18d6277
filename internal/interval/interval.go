// Package interval implements the work-unit algebra of the paper
// (Mezmaz, Melab, Talbi; INRIA RR-5945, §3–4): half-open intervals of node
// numbers [A, B), the intersection operator used by the fault-tolerance
// mechanism (eq. 14), and the partitioning operator used by the
// load-balancing mechanism (§4.2).
//
// Node numbers grow factorially with problem size (50 jobs means numbers up
// to 50! ≈ 3·10^64), so they are exact integers of any width: a Num holds
// a machine word and spills to math/big only beyond the int64 range, so
// trees below 2^63 leaves never pay for arbitrary precision (DESIGN.md
// §15). Intervals are the only representation that crosses process
// boundaries; the exponentially larger active-node lists they encode never
// leave a worker (paper §3).
package interval

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
)

// Interval is a half-open interval [A, B) of node numbers. The zero value is
// the empty interval [0, 0). An Interval is a value: copies of a spilled
// bound share its storage, which only the in-place operators
// (IntersectInPlace, SplitProportionalInPlace) ever write, and only on a
// receiver built by Clone — the long-lived copies a farmer or an explorer
// owns. Every other operator returns fresh or shared bounds and never
// writes its operands.
type Interval struct {
	a, b Num
}

// New returns the interval [a, b). The arguments are copied; nil reads as
// zero.
func New(a, b *big.Int) Interval { return Interval{a: NumBig(a), b: NumBig(b)} }

// FromInt64 returns the interval [a, b) from machine integers.
func FromInt64(a, b int64) Interval { return Interval{a: NumInt64(a), b: NumInt64(b)} }

// Of returns the interval [a, b). Spilled bounds are shared with the
// arguments, so the result is read-only until cloned.
func Of(a, b Num) Interval { return Interval{a: a, b: b} }

// A returns the interval's beginning as a fresh *big.Int.
func (iv Interval) A() *big.Int { return iv.a.Big() }

// B returns the interval's end as a fresh *big.Int.
func (iv Interval) B() *big.Int { return iv.b.Big() }

// Lo returns the interval's beginning; a spilled value is shared, so the
// caller must not write it in place.
func (iv Interval) Lo() Num { return iv.a }

// Hi returns the interval's end, shared like Lo.
func (iv Interval) Hi() Num { return iv.b }

// MaxBitLen returns the larger bit length of the interval's two bounds.
// It is the cheap size probe a coordinator boundary uses to reject
// hostile megabyte bignums before any O(n) comparison touches them: the
// wire decodes arbitrary-precision bounds, so the shape of an inbound
// interval is attacker-controlled.
func (iv Interval) MaxBitLen() int { return max(iv.a.BitLen(), iv.b.BitLen()) }

// IntersectInPlace narrows iv to iv ∩ other (eq. 14), writing the
// receiver's own bounds: it is the mutating twin of Intersect for owners
// of long-lived intervals (the farmer's INTERVALS entries) and agrees with
// it on every input (up to Equal): intersecting with an empty interval —
// including the zero value — empties the receiver.
func (iv *Interval) IntersectInPlace(other Interval) {
	if other.IsEmpty() {
		iv.b.Set(iv.a)
		return
	}
	if other.a.Cmp(iv.a) > 0 {
		iv.a.Set(other.a)
	}
	if other.b.Cmp(iv.b) < 0 {
		iv.b.Set(other.b)
	}
}

// Clone returns a deep copy of the interval, owning its bounds.
func (iv Interval) Clone() Interval { return Interval{a: iv.a.Clone(), b: iv.b.Clone()} }

// IsEmpty reports whether the interval contains no numbers, i.e. A >= B.
// The paper removes such intervals from INTERVALS automatically (§4.3).
func (iv Interval) IsEmpty() bool { return iv.a.Cmp(iv.b) >= 0 }

// Width returns B-A if positive and zero otherwise: the number of
// not-yet-explored leaf numbers the interval represents (the paper's
// interval "length", §4.2).
func (iv Interval) Width() Num {
	var n Num
	return *n.SetWidth(iv)
}

// SetWidth sets z to iv.Width(), in z's own storage.
func (z *Num) SetWidth(iv Interval) *Num {
	if iv.IsEmpty() {
		return z.Set(Num{})
	}
	return z.Sub(iv.b, iv.a)
}

// Len returns Width as a fresh *big.Int.
func (iv Interval) Len() *big.Int { return iv.Width().Big() }

// Contains reports whether the number x lies in [A, B).
func (iv Interval) Contains(x Num) bool { return iv.a.Cmp(x) <= 0 && x.Cmp(iv.b) < 0 }

// ContainsInterval reports whether other ⊆ iv. The empty interval is
// contained in every interval, matching the set-theoretic convention the
// unfold elimination rule relies on (eq. 12).
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.IsEmpty() {
		return true
	}
	if iv.IsEmpty() {
		return false
	}
	return iv.a.Cmp(other.a) <= 0 && other.b.Cmp(iv.b) <= 0
}

// Overlaps reports whether iv and other share at least one number.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.IsEmpty() || other.IsEmpty() {
		return false
	}
	return iv.a.Cmp(other.b) < 0 && other.a.Cmp(iv.b) < 0
}

// Intersect implements the paper's intersection operator (eq. 14):
//
//	[A, B) ∩ [A', B') = [max(A, A'), min(B, B'))
//
// It is how a B&B process reconciles its locally explored interval with the
// coordinator's copy after load balancing shrank one of them (§4.1).
// Intersection with an empty interval — including the zero value, which
// denotes ∅ everywhere in this package — is empty; an early version treated
// the zero value's nil bounds as "no constraint", which silently handed the
// whole root range to explorers constructed with no work at all.
func (iv Interval) Intersect(other Interval) Interval {
	if iv.IsEmpty() || other.IsEmpty() {
		return Interval{}
	}
	return Interval{a: maxNum(iv.a, other.a), b: minNum(iv.b, other.b)}
}

func maxNum(x, y Num) Num {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

func minNum(x, y Num) Num {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// SplitAt implements the partitioning operator (§4.2): it divides [A, B)
// into the holder part [A, C) and the donated part [C, B). The point c is
// clamped into [A, B] so the two parts always tile the original interval.
// An empty interval splits into two copies of [A, A).
func (iv Interval) SplitAt(c Num) (holder, donated Interval) {
	if iv.IsEmpty() {
		return Interval{a: iv.a, b: iv.a}, Interval{a: iv.a, b: iv.a}
	}
	c = minNum(maxNum(c, iv.a), iv.b)
	return Interval{a: iv.a, b: c}, Interval{a: c, b: iv.b}
}

// SplitProportional splits the interval so that the holder keeps a share of
// holderPower/(holderPower+requesterPower) of its length, the paper's rule
// for heterogeneous, non-dedicated hosts (§4.2): "the lengths of the two
// intervals must be proportional to the participation of each one in the
// calculation". A holder power of zero models the virtual null-power process
// that owns orphaned intervals, so the requester receives everything.
// Negative powers are treated as zero. If both powers are zero the split is
// at A (the whole interval is donated), matching the orphan rule.
func (iv Interval) SplitProportional(holderPower, requesterPower int64) (holder, donated Interval) {
	holder = iv.Clone()
	donated = holder.SplitProportionalInPlace(holderPower, requesterPower)
	return holder, donated
}

// SplitProportionalInPlace is SplitProportional for the owner of a
// long-lived interval (the farmer's INTERVALS entries): the receiver keeps
// [A, C) and the returned donated part [C, B) takes over the receiver's old
// end bound, so a spilled split allocates C twice and nothing else. The
// product length·holderPower goes through a 128-bit intermediate, so a
// word-sized split allocates nothing. Both parts agree with SplitAt at the
// same point on every input, empty ones included.
func (iv *Interval) SplitProportionalInPlace(holderPower, requesterPower int64) (donated Interval) {
	if iv.IsEmpty() {
		iv.b.Set(iv.a)
		return Interval{a: iv.a.Clone(), b: iv.a.Clone()}
	}
	holderPower, requesterPower = max(holderPower, 0), max(requesterPower, 0)
	// C = A + len * holderPower/total, rounded down so ties favour the
	// requester (the process known to be alive and asking for work).
	var c Num
	if total := holderPower + requesterPower; total > 0 {
		c.Sub(iv.b, iv.a)
		c.MulQuo(c, holderPower, total)
		c.Add(c, iv.a)
	} else {
		c.Set(iv.a)
	}
	donated = Interval{a: c, b: iv.b}
	iv.b = c.Clone()
	return donated
}

// Equal reports whether the two intervals denote the same set of numbers.
// All empty intervals are equal regardless of their bounds.
func (iv Interval) Equal(other Interval) bool {
	if iv.IsEmpty() && other.IsEmpty() {
		return true
	}
	if iv.IsEmpty() != other.IsEmpty() {
		return false
	}
	return iv.a.Cmp(other.a) == 0 && iv.b.Cmp(other.b) == 0
}

// Cmp orders intervals by beginning, then by end; empty intervals order by
// their raw bounds. It gives the canonical ascending order of work units.
func (iv Interval) Cmp(other Interval) int {
	if c := iv.a.Cmp(other.a); c != 0 {
		return c
	}
	return iv.b.Cmp(other.b)
}

// String renders the interval as "[A,B)".
func (iv Interval) String() string { return "[" + iv.a.String() + "," + iv.b.String() + ")" }

// MarshalText encodes the interval as "A B" in base 10; it is the
// checkpoint representation (the wire uses AppendDelta), deliberately tiny compared to the active-node
// lists it stands for (paper abstract: "a special coding of the work units
// ... allows to optimize the involved communications").
func (iv Interval) MarshalText() ([]byte, error) {
	return []byte(iv.a.String() + " " + iv.b.String()), nil
}

// UnmarshalText decodes the "A B" form produced by MarshalText.
func (iv *Interval) UnmarshalText(text []byte) error {
	fields := strings.Fields(string(text))
	if len(fields) != 2 {
		return fmt.Errorf("interval: expected \"A B\", got %q", string(text))
	}
	a, ok := parseNum(fields[0])
	if !ok {
		return fmt.Errorf("interval: bad beginning %q", fields[0])
	}
	b, ok := parseNum(fields[1])
	if !ok {
		return fmt.Errorf("interval: bad end %q", fields[1])
	}
	iv.a, iv.b = a, b
	return nil
}

// parseNum parses a base-10 integer exactly as big.Int.SetString(s, 10)
// does, without math/big for word-sized values.
func parseNum(s string) (Num, bool) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return NumInt64(v), true
	}
	x, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return Num{}, false
	}
	return NumBig(x), true
}
