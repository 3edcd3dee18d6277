// Package interval implements the work-unit algebra of the paper
// (Mezmaz, Melab, Talbi; INRIA RR-5945, §3–4): half-open intervals of node
// numbers [A, B) over arbitrary-precision integers, the intersection
// operator used by the fault-tolerance mechanism (eq. 14), and the
// partitioning operator used by the load-balancing mechanism (§4.2).
//
// Node numbers grow factorially with problem size (50 jobs means numbers up
// to 50! ≈ 3·10^64), so all arithmetic uses math/big. Intervals are the only
// representation that crosses process boundaries; the exponentially larger
// active-node lists they encode never leave a worker (paper §3).
package interval

import (
	"fmt"
	"math/big"
	"strings"
)

// Interval is a half-open interval [A, B) of node numbers. The zero value is
// the empty interval [0, 0). Interval values own their big.Int fields:
// constructors copy their arguments and accessors return copies, so callers
// can never alias internal state.
type Interval struct {
	a, b *big.Int
}

// New returns the interval [a, b). The arguments are copied.
func New(a, b *big.Int) Interval {
	return Interval{a: cloneOrZero(a), b: cloneOrZero(b)}
}

// FromInt64 returns the interval [a, b) from machine integers, a convenience
// for tests and small trees.
func FromInt64(a, b int64) Interval {
	return Interval{a: big.NewInt(a), b: big.NewInt(b)}
}

func cloneOrZero(x *big.Int) *big.Int {
	if x == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(x)
}

// A returns a copy of the interval's beginning.
func (iv Interval) A() *big.Int { return cloneOrZero(iv.a) }

// B returns a copy of the interval's end.
func (iv Interval) B() *big.Int { return cloneOrZero(iv.b) }

// zero is the implicit bound of an Interval with nil fields (the zero value
// is [0, 0)). It is only ever read.
var zero = new(big.Int)

func orZero(x *big.Int) *big.Int {
	if x == nil {
		return zero
	}
	return x
}

// Borrow-style accessors. A() and B() clone so callers can never alias
// internal state, which is the right default for values that cross
// goroutines and process boundaries — but it puts two heap allocations on
// every inspection, and the coordination hot paths (Explorer.Restrict, the
// farmer's per-checkpoint message handling) inspect intervals thousands of
// times per second. The methods below compare against or copy into
// caller-owned big.Ints instead, so steady-state coordination rounds
// allocate nothing. None of them retain or expose the interval's internals.

// CmpA compares the interval's beginning with x: -1 if A < x, 0 if equal,
// +1 if A > x.
func (iv Interval) CmpA(x *big.Int) int { return orZero(iv.a).Cmp(x) }

// MaxBitLen returns the larger bit length of the interval's two bounds.
// It is the cheap size probe a coordinator boundary uses to reject
// hostile megabyte bignums before any O(n) comparison touches them: gob
// decoding accepts arbitrary-precision integers, so the shape of an
// inbound interval is attacker-controlled. Nil bounds (the zero value)
// report zero.
func (iv Interval) MaxBitLen() int {
	a, b := orZero(iv.a).BitLen(), orZero(iv.b).BitLen()
	if a > b {
		return a
	}
	return b
}

// CmpB compares the interval's end with x.
func (iv Interval) CmpB(x *big.Int) int { return orZero(iv.b).Cmp(x) }

// AInto copies the interval's beginning into dst and returns dst.
func (iv Interval) AInto(dst *big.Int) *big.Int { return dst.Set(orZero(iv.a)) }

// BInto copies the interval's end into dst and returns dst.
func (iv Interval) BInto(dst *big.Int) *big.Int { return dst.Set(orZero(iv.b)) }

// LenInto computes Len (B-A clamped at zero) into dst and returns dst.
func (iv Interval) LenInto(dst *big.Int) *big.Int {
	if iv.IsEmpty() {
		return dst.SetInt64(0)
	}
	return dst.Sub(iv.b, iv.a)
}

// IntersectInPlace narrows iv to iv ∩ other (eq. 14) without allocating
// fresh bounds in the steady state: the receiver's own big.Ints are
// overwritten. It is the mutating twin of Intersect for owners of
// long-lived intervals (the farmer's INTERVALS entries) and agrees with it
// on every input (up to Equal): intersecting with an empty interval —
// including the zero value — empties the receiver.
func (iv *Interval) IntersectInPlace(other Interval) {
	if iv.a == nil {
		iv.a = new(big.Int)
	}
	if iv.b == nil {
		iv.b = new(big.Int)
	}
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

// Clone returns a deep copy of the interval.
func (iv Interval) Clone() Interval { return Interval{a: iv.A(), b: iv.B()} }

// IsEmpty reports whether the interval contains no numbers, i.e. A >= B.
// The paper removes such intervals from INTERVALS automatically (§4.3).
func (iv Interval) IsEmpty() bool {
	if iv.a == nil || iv.b == nil {
		return true
	}
	return iv.a.Cmp(iv.b) >= 0
}

// Len returns B-A if positive and zero otherwise: the number of not-yet
// explored leaf numbers the interval represents (the paper's interval
// "length", §4.2).
func (iv Interval) Len() *big.Int {
	if iv.IsEmpty() {
		return new(big.Int)
	}
	return new(big.Int).Sub(iv.b, iv.a)
}

// Contains reports whether the number x lies in [A, B).
func (iv Interval) Contains(x *big.Int) bool {
	if iv.IsEmpty() {
		return false
	}
	return iv.a.Cmp(x) <= 0 && x.Cmp(iv.b) < 0
}

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
		return Interval{a: new(big.Int), b: new(big.Int)}
	}
	a := maxBig(iv.a, other.a)
	b := minBig(iv.b, other.b)
	return Interval{a: cloneOrZero(a), b: cloneOrZero(b)}
}

func maxBig(x, y *big.Int) *big.Int {
	if x == nil {
		return y
	}
	if y == nil {
		return x
	}
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

func minBig(x, y *big.Int) *big.Int {
	if x == nil {
		return y
	}
	if y == nil {
		return x
	}
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// SplitAt implements the partitioning operator (§4.2): it divides [A, B)
// into the holder part [A, C) and the donated part [C, B). The point c is
// clamped into [A, B] so the two parts always tile the original interval.
func (iv Interval) SplitAt(c *big.Int) (holder, donated Interval) {
	cc := cloneOrZero(c)
	if iv.IsEmpty() {
		return Interval{a: iv.A(), b: iv.A()}, Interval{a: iv.A(), b: iv.A()}
	}
	if cc.Cmp(iv.a) < 0 {
		cc.Set(iv.a)
	}
	if cc.Cmp(iv.b) > 0 {
		cc.Set(iv.b)
	}
	return Interval{a: iv.A(), b: new(big.Int).Set(cc)},
		Interval{a: cc, b: iv.B()}
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
	donated = holder.SplitProportionalInPlace(holderPower, requesterPower, new(big.Int))
	return holder, donated
}

// SplitProportionalInPlace is SplitProportional for the owner of a
// long-lived interval (the farmer's INTERVALS entries): the receiver keeps
// [A, C) and the returned donated part [C, B) takes over the receiver's old
// end bound, so the split copies C twice and nothing else. The point C is
// computed in scratch, which is neither retained nor exposed. Both parts
// agree with SplitAt at the same point on every input, empty ones included.
func (iv *Interval) SplitProportionalInPlace(holderPower, requesterPower int64, scratch *big.Int) (donated Interval) {
	if iv.IsEmpty() {
		*iv, donated = iv.SplitAt(iv.a)
		return donated
	}
	holderPower, requesterPower = max(holderPower, 0), max(requesterPower, 0)
	// C = A + len * holderPower/total, rounded down so ties favour the
	// requester (the process known to be alive and asking for work).
	c := scratch.Set(iv.a)
	if total := holderPower + requesterPower; total > 0 {
		c.Sub(iv.b, iv.a)
		c.Mul(c, big.NewInt(holderPower))
		c.Quo(c, big.NewInt(total))
		c.Add(c, iv.a)
	}
	donated = Interval{a: new(big.Int).Set(c), b: iv.b}
	iv.b = new(big.Int).Set(c)
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
	if c := orZero(iv.a).Cmp(orZero(other.a)); c != 0 {
		return c
	}
	return orZero(iv.b).Cmp(orZero(other.b))
}

// String renders the interval as "[A,B)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%s,%s)", cloneOrZero(iv.a), cloneOrZero(iv.b))
}

// MarshalText encodes the interval as "A B" in base 10; it is the
// checkpoint representation (the wire uses AppendDelta), deliberately tiny compared to the active-node
// lists it stands for (paper abstract: "a special coding of the work units
// ... allows to optimize the involved communications").
func (iv Interval) MarshalText() ([]byte, error) {
	return []byte(cloneOrZero(iv.a).Text(10) + " " + cloneOrZero(iv.b).Text(10)), nil
}

// UnmarshalText decodes the "A B" form produced by MarshalText.
func (iv *Interval) UnmarshalText(text []byte) error {
	fields := strings.Fields(string(text))
	if len(fields) != 2 {
		return fmt.Errorf("interval: expected \"A B\", got %q", string(text))
	}
	a, ok := new(big.Int).SetString(fields[0], 10)
	if !ok {
		return fmt.Errorf("interval: bad beginning %q", fields[0])
	}
	b, ok := new(big.Int).SetString(fields[1], 10)
	if !ok {
		return fmt.Errorf("interval: bad end %q", fields[1])
	}
	iv.a, iv.b = a, b
	return nil
}
