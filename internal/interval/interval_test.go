package interval

import (
	"math/big"
	"testing"
	"testing/quick"
)

func iv(a, b int64) Interval { return FromInt64(a, b) }

// TestEmptiness covers the §4.3 rule: an interval is empty exactly when its
// beginning is not below its end, and the zero value is empty.
func TestEmptiness(t *testing.T) {
	cases := []struct {
		iv    Interval
		empty bool
	}{
		{Interval{}, true},
		{iv(0, 0), true},
		{iv(5, 5), true},
		{iv(7, 3), true},
		{iv(0, 1), false},
		{iv(-3, -1), false},
	}
	for _, c := range cases {
		if got := c.iv.IsEmpty(); got != c.empty {
			t.Errorf("IsEmpty(%v) = %v, want %v", c.iv, got, c.empty)
		}
	}
}

// TestLen: length is B-A clamped at zero.
func TestLen(t *testing.T) {
	if got := iv(3, 10).Len().Int64(); got != 7 {
		t.Errorf("len = %d, want 7", got)
	}
	if got := iv(10, 3).Len().Int64(); got != 0 {
		t.Errorf("len of reversed = %d, want 0", got)
	}
}

// TestIntersectPaperExamples checks eq. (14) on the situations §4.1–4.2
// describe: holder shrunk by load balancing, duplicate advanced by a peer.
func TestIntersectPaperExamples(t *testing.T) {
	// Worker explores [A,B) and advanced A; coordinator cut B' for a
	// requester: intersection keeps [max, min).
	got := iv(100, 1000).Intersect(iv(0, 750))
	if !got.Equal(iv(100, 750)) {
		t.Errorf("intersect = %v, want [100,750)", got)
	}
	// Disjoint pieces give an empty result.
	if !iv(0, 5).Intersect(iv(7, 9)).IsEmpty() {
		t.Error("disjoint intersection not empty")
	}
}

// TestIntersectProperties: commutative, idempotent, never larger than
// either operand (property-based).
func TestIntersectProperties(t *testing.T) {
	gen := func(a, b int16) Interval { return iv(int64(a), int64(b)) }
	f := func(a1, b1, a2, b2 int16) bool {
		x, y := gen(a1, b1), gen(a2, b2)
		xy := x.Intersect(y)
		yx := y.Intersect(x)
		if !xy.Equal(yx) {
			return false
		}
		if !xy.Equal(xy.Intersect(x)) {
			return false
		}
		if xy.Len().Cmp(x.Len()) > 0 || xy.Len().Cmp(y.Len()) > 0 {
			return false
		}
		// Every member of the intersection is in both operands.
		if !xy.IsEmpty() {
			if !x.ContainsInterval(xy) || !y.ContainsInterval(xy) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitTiles: SplitAt always tiles the original interval, clamping out-
// of-range cut points (property-based).
func TestSplitTiles(t *testing.T) {
	f := func(a, b, c int16) bool {
		x := iv(int64(a), int64(b))
		holder, donated := x.SplitAt(NumInt64(int64(c)))
		// Lengths add up.
		sum := new(big.Int).Add(holder.Len(), donated.Len())
		if sum.Cmp(x.Len()) != 0 {
			return false
		}
		// Pieces stay inside the original.
		if !x.ContainsInterval(holder) || !x.ContainsInterval(donated) {
			return false
		}
		// Pieces abut (or one is empty).
		if !holder.IsEmpty() && !donated.IsEmpty() {
			return holder.B().Cmp(donated.A()) == 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitProportional covers the §4.2 partitioning rules.
func TestSplitProportional(t *testing.T) {
	x := iv(0, 1000)
	holder, donated := x.SplitProportional(30, 10)
	if !holder.Equal(iv(0, 750)) || !donated.Equal(iv(750, 1000)) {
		t.Fatalf("30:10 split = %v / %v", holder, donated)
	}
	// Orphan (null-power virtual process): everything donated.
	holder, donated = x.SplitProportional(0, 10)
	if !holder.IsEmpty() || !donated.Equal(x) {
		t.Fatalf("orphan split = %v / %v", holder, donated)
	}
	// Zero-power requester gets nothing.
	holder, donated = x.SplitProportional(10, 0)
	if !holder.Equal(x) || !donated.IsEmpty() {
		t.Fatalf("powerless requester split = %v / %v", holder, donated)
	}
	// Both zero: treated as orphan.
	holder, donated = x.SplitProportional(0, 0)
	if !holder.IsEmpty() || !donated.Equal(x) {
		t.Fatalf("0:0 split = %v / %v", holder, donated)
	}
	// Negative powers are clamped.
	holder, donated = x.SplitProportional(-5, 10)
	if !donated.Equal(x) {
		t.Fatalf("negative holder power split = %v / %v", holder, donated)
	}
	// Both forms against SplitAt at the same point: empty receivers (the
	// zero value and a reversed pair included), zero and negative powers,
	// and C clamped at B by a powerless requester.
	for _, r := range []Interval{x, iv(7, 8), iv(5, 5), iv(9, 3), {}} {
		for _, p := range [][2]int64{{30, 10}, {1, 2}, {0, 10}, {10, 0}, {0, 0}, {-5, 10}, {10, -5}, {-1, -1}} {
			checkSplitInPlace(t, r, p[0], p[1])
		}
	}
}

// splitPoint is the §4.2 split point by its definition, independent of the
// code under test: A + ⌊len·hp/(hp+rp)⌋, negative powers as zero, and A
// when both powers vanish.
func splitPoint(x Interval, hp, rp int64) Num {
	hp, rp = max(hp, 0), max(rp, 0)
	c := x.A()
	if hp+rp > 0 {
		share := new(big.Int).Mul(x.Len(), big.NewInt(hp))
		c.Add(c, share.Quo(share, big.NewInt(hp+rp)))
	}
	return NumBig(c)
}

// checkSplitInPlace holds SplitProportional and SplitProportionalInPlace to
// SplitAt at the same point, bound for bound, and checks that the in-place
// form's donated part shares no spilled bound with the receiver (nor its
// two bounds with each other) and that the
// value form leaves its receiver alone.
func checkSplitInPlace(t *testing.T, x Interval, hp, rp int64) {
	t.Helper()
	before := x.String()
	wantH, wantD := x.SplitAt(splitPoint(x, hp, rp))
	h := x.Clone()
	d := h.SplitProportionalInPlace(hp, rp)
	hv, dv := x.SplitProportional(hp, rp)
	want := wantH.String() + " " + wantD.String()
	if got := h.String() + " " + d.String(); got != want {
		t.Fatalf("%v in place at %d:%d = %s, SplitAt = %s", x, hp, rp, got, want)
	}
	if got := hv.String() + " " + dv.String(); got != want {
		t.Fatalf("%v split at %d:%d = %s, SplitAt = %s", x, hp, rp, got, want)
	}
	if x.String() != before {
		t.Fatalf("SplitProportional moved its receiver: %s -> %v", before, x)
	}
	owned := []*big.Int{h.a.b, h.b.b, d.a.b, d.b.b}
	for i, p := range owned {
		for _, q := range owned[i+1:] {
			if p != nil && p == q {
				t.Fatalf("%v in place at %d:%d: the two parts share a bound's storage", x, hp, rp)
			}
		}
	}
}

// TestSplitProportionalShares: the holder's share is proportional within
// one unit of rounding (property-based).
func TestSplitProportionalShares(t *testing.T) {
	f := func(hp, rp uint8) bool {
		x := iv(0, 10000)
		h, r := int64(hp)+1, int64(rp)+1
		holder, _ := x.SplitProportional(h, r)
		want := 10000 * h / (h + r)
		return holder.Len().Int64() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestContains covers boundary semantics of the half-open interval.
func TestContains(t *testing.T) {
	x := iv(3, 7)
	for n, want := range map[int64]bool{2: false, 3: true, 6: true, 7: false} {
		if got := x.Contains(NumInt64(n)); got != want {
			t.Errorf("Contains(%d) = %v, want %v", n, got, want)
		}
	}
	if (Interval{}).Contains(NumInt64(0)) {
		t.Error("empty interval contains 0")
	}
}

// TestContainsInterval: the empty interval is a subset of everything; no
// non-empty interval fits into an empty one.
func TestContainsInterval(t *testing.T) {
	if !iv(0, 10).ContainsInterval(iv(5, 5)) {
		t.Error("empty not contained")
	}
	if !iv(5, 5).ContainsInterval(iv(9, 9)) {
		t.Error("empty not contained in empty")
	}
	if iv(5, 5).ContainsInterval(iv(5, 6)) {
		t.Error("non-empty contained in empty")
	}
	if !iv(0, 10).ContainsInterval(iv(0, 10)) {
		t.Error("interval not contained in itself")
	}
	if iv(0, 10).ContainsInterval(iv(0, 11)) {
		t.Error("superset contained")
	}
}

// TestOverlaps is the disjointness test of the unfold elimination rule.
func TestOverlaps(t *testing.T) {
	cases := []struct {
		x, y Interval
		want bool
	}{
		{iv(0, 5), iv(5, 10), false}, // abutting half-open intervals are disjoint
		{iv(0, 6), iv(5, 10), true},
		{iv(0, 5), iv(7, 7), false},
		{iv(3, 3), iv(0, 10), false},
	}
	for _, c := range cases {
		if got := c.x.Overlaps(c.y); got != c.want {
			t.Errorf("Overlaps(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
		if got := c.y.Overlaps(c.x); got != c.want {
			t.Errorf("Overlaps not symmetric on (%v,%v)", c.y, c.x)
		}
	}
}

// TestMarshalRoundTrip: the text form survives numbers far beyond uint64
// (Ta056's 50! scale).
func TestMarshalRoundTrip(t *testing.T) {
	big50, _ := new(big.Int).SetString("30414093201713378043612608166064768844377641568960512000000000000", 10) // 50!
	x := New(big.NewInt(12345), big50)
	text, err := x.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var y Interval
	if err := y.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if !x.Equal(y) {
		t.Fatalf("text round trip: %v != %v", x, y)
	}
}

// TestUnmarshalRejectsGarbage: malformed wire forms error cleanly.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "12", "a b", "1 2 3", "1 x"} {
		var y Interval
		if err := y.UnmarshalText([]byte(s)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", s)
		}
	}
}

// TestAccessorsAreCopies: mutating what A()/B() return must not corrupt the
// interval — aliasing bugs here would silently corrupt work accounting.
func TestAccessorsAreCopies(t *testing.T) {
	x := iv(1, 2)
	x.A().SetInt64(999)
	x.B().SetInt64(999)
	if !x.Equal(iv(1, 2)) {
		t.Fatalf("accessor aliased internal state: %v", x)
	}
	// The same for spilled bounds, past 2^63, and for Len.
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 70), new(big.Int).Lsh(big.NewInt(1), 71)
	w := New(lo, hi)
	w.A().SetInt64(999)
	w.B().SetInt64(999)
	w.Len().SetInt64(999)
	if w.A().Cmp(lo) != 0 || w.B().Cmp(hi) != 0 {
		t.Fatalf("spilled accessor aliased internal state: %v", w)
	}
	// Constructor must copy its arguments too.
	a, b := big.NewInt(1), big.NewInt(2)
	y := New(a, b)
	a.SetInt64(999)
	if !y.Equal(iv(1, 2)) {
		t.Fatalf("constructor aliased arguments: %v", y)
	}
}

// TestCmpOrdering: intervals order by beginning then end.
func TestCmpOrdering(t *testing.T) {
	if iv(1, 5).Cmp(iv(2, 3)) >= 0 {
		t.Error("order by beginning failed")
	}
	if iv(1, 5).Cmp(iv(1, 6)) >= 0 {
		t.Error("order by end failed")
	}
	if iv(1, 5).Cmp(iv(1, 5)) != 0 {
		t.Error("self comparison nonzero")
	}
}

// TestString covers the diagnostic rendering.
func TestString(t *testing.T) {
	if got := iv(3, 9).String(); got != "[3,9)" {
		t.Errorf("String() = %q", got)
	}
	if got := (Interval{}).String(); got != "[0,0)" {
		t.Errorf("zero String() = %q", got)
	}
}

// TestBorrowAccessors: the allocation-free accessors agree with their

// TestIntersectInPlace: the mutating intersection matches Intersect on
// overlapping, nested, disjoint and empty operands.
func TestIntersectInPlace(t *testing.T) {
	cases := [][2]Interval{
		{iv(0, 10), iv(5, 20)},
		{iv(5, 20), iv(0, 10)},
		{iv(0, 10), iv(2, 8)},
		{iv(2, 8), iv(0, 10)},
		{iv(0, 5), iv(7, 9)},
		{iv(0, 5), iv(5, 9)},
		{iv(3, 3), iv(0, 10)},
		{iv(0, 10), {}},
	}
	for _, c := range cases {
		want := c[0].Intersect(c[1])
		got := c[0].Clone()
		got.IntersectInPlace(c[1])
		if !got.Equal(want) {
			t.Errorf("IntersectInPlace(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
	}
	// The zero interval denotes ∅, and ∅ absorbs: intersecting either
	// way yields an empty interval (the old nil-means-no-constraint
	// reading silently handed the whole root range to empty explorers).
	var zero Interval
	zero.IntersectInPlace(iv(1, 5))
	if !zero.IsEmpty() {
		t.Errorf("zero ∩ [1,5) = %v, want empty", zero)
	}
	if got := iv(1, 5).Intersect(Interval{}); !got.IsEmpty() {
		t.Errorf("[1,5) ∩ zero = %v, want empty", got)
	}
}
