package interval

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// Randomized torture tests of the work-unit algebra, in the style of
// core/explorer_fuzz_test.go: thousands of seeded random cases checked
// against brute-force models over a small universe, so every algebraic
// identity the runtime leans on (eq. 10/14 and the Set conservation laws
// the harness asserts) is pinned mechanically. Every law runs over two
// universes: one at 0, and one straddling 2^63, so each operator is also
// checked where node numbers cross from a machine word into math/big.

const fuzzUniverse = 64

// universe is fuzzUniverse consecutive numbers from base.
type universe struct{ base *big.Int }

// fuzzUniverses are the two origins every randomized law runs over.
var fuzzUniverses = []universe{
	{big.NewInt(0)},
	{new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(fuzzUniverse/2))},
}

// forUniverses runs body once per universe, as a named subtest.
func forUniverses(t *testing.T, body func(t *testing.T, u universe)) {
	for _, u := range fuzzUniverses {
		t.Run(fmt.Sprintf("base=%s", u.base), func(t *testing.T) { body(t, u) })
	}
}

// num returns the universe's i-th number.
func (u universe) num(i int64) Num { return NumBig(new(big.Int).Add(u.base, big.NewInt(i))) }

// iv returns [num(a), num(b)).
func (u universe) iv(a, b int64) Interval { return Of(u.num(a), u.num(b)) }

func (u universe) randIv(rng *rand.Rand) Interval {
	a := rng.Int63n(fuzzUniverse + 1)
	b := rng.Int63n(fuzzUniverse + 1)
	if rng.Intn(8) == 0 {
		return Interval{} // the zero value joins the party
	}
	return u.iv(a, b) // may be empty (a >= b): that is the point
}

// model is the brute-force reference: one bool per number of a universe.
type model [fuzzUniverse]bool

func (m *model) add(u universe, iv Interval) (overlap int64) {
	for i := int64(0); i < fuzzUniverse; i++ {
		if iv.Contains(u.num(i)) {
			if m[i] {
				overlap++
			}
			m[i] = true
		}
	}
	return overlap
}

func (m *model) sub(u universe, iv Interval) (removed int64) {
	for i := int64(0); i < fuzzUniverse; i++ {
		if iv.Contains(u.num(i)) && m[i] {
			removed++
			m[i] = false
		}
	}
	return removed
}

func (m *model) contains(u universe, s *Set) bool {
	for i := int64(0); i < fuzzUniverse; i++ {
		if m[i] != s.Covers(u.iv(i, i+1)) {
			return false
		}
	}
	return true
}

func (m *model) total() int64 {
	var n int64
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

// TestFuzzIntersectInPlaceMatchesIntersect: the mutating twin must agree
// with the pure operator on every input, including zero-value operands —
// this is the identity the farmer's per-checkpoint hot path relies on.
func TestFuzzIntersectInPlaceMatchesIntersect(t *testing.T) {
	forUniverses(t, func(t *testing.T, u universe) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 5000; trial++ {
			x, y := u.randIv(rng), u.randIv(rng)
			pure := x.Intersect(y)
			mut := x.Clone()
			mut.IntersectInPlace(y)
			if !mut.Equal(pure) {
				t.Fatalf("trial %d: %v ∩ %v: in-place %v, pure %v", trial, x, y, mut, pure)
			}
			// Commutativity up to Equal (empties may differ in bounds).
			if !y.Intersect(x).Equal(pure) {
				t.Fatalf("trial %d: intersection not commutative for %v, %v", trial, x, y)
			}
			// Membership law against the model.
			for i := int64(0); i < fuzzUniverse; i++ {
				n := u.num(i)
				if pure.Contains(n) != (x.Contains(n) && y.Contains(n)) {
					t.Fatalf("trial %d: %d membership wrong in %v ∩ %v = %v", trial, i, x, y, pure)
				}
			}
		}
	})
}

// TestFuzzSplitsTile: both partitioning operators produce two pieces that
// tile the original exactly — the §4.2 guarantee the load balancer and the
// p2p donate path depend on for work conservation.
func TestFuzzSplitsTile(t *testing.T) {
	forUniverses(t, func(t *testing.T, u universe) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 5000; trial++ {
			iv := u.randIv(rng)
			var holder, donated Interval
			if rng.Intn(2) == 0 {
				holder, donated = iv.SplitAt(u.num(rng.Int63n(fuzzUniverse + 1)))
			} else {
				hp, rp := rng.Int63n(7)-2, rng.Int63n(7)-2 // negatives included
				checkSplitInPlace(t, iv, hp, rp)
				holder, donated = iv.SplitProportional(hp, rp)
			}
			sum := new(big.Int).Add(holder.Len(), donated.Len())
			if sum.Cmp(iv.Len()) != 0 {
				t.Fatalf("trial %d: split of %v lost measure: %v + %v", trial, iv, holder, donated)
			}
			if holder.Overlaps(donated) {
				t.Fatalf("trial %d: split pieces overlap: %v, %v", trial, holder, donated)
			}
			for i := int64(0); i < fuzzUniverse; i++ {
				n := u.num(i)
				if iv.Contains(n) != (holder.Contains(n) || donated.Contains(n)) {
					t.Fatalf("trial %d: number %d misplaced by split of %v", trial, i, iv)
				}
			}
		}
	})
}

// TestFuzzHalveTiles: the extracted donation operator — kept + donated
// exactly tile the victim's interval, the pieces never overlap, and
// too-short intervals (including every empty one, zero value included) are
// absorbing: the victim keeps everything and the donation is empty. This
// is the conservation law the p2p steals and the multicore shard engine's
// internal rebalancing both lean on.
func TestFuzzHalveTiles(t *testing.T) {
	forUniverses(t, func(t *testing.T, u universe) {
		rng := rand.New(rand.NewSource(44))
		for trial := 0; trial < 5000; trial++ {
			iv := u.randIv(rng)
			keep, give := Halve(iv)
			sum := new(big.Int).Add(keep.Len(), give.Len())
			if sum.Cmp(iv.Len()) != 0 {
				t.Fatalf("trial %d: Halve(%v) lost measure: %v + %v", trial, iv, keep, give)
			}
			if keep.Overlaps(give) {
				t.Fatalf("trial %d: Halve(%v) pieces overlap: %v, %v", trial, iv, keep, give)
			}
			for i := int64(0); i < fuzzUniverse; i++ {
				n := u.num(i)
				if iv.Contains(n) != (keep.Contains(n) || give.Contains(n)) {
					t.Fatalf("trial %d: number %d misplaced by Halve(%v)", trial, i, iv)
				}
			}
			if iv.Len().Cmp(big.NewInt(2)) < 0 {
				if !give.IsEmpty() {
					t.Fatalf("trial %d: Halve(%v) donated %v from a too-short interval", trial, iv, give)
				}
				if !keep.Equal(iv) {
					t.Fatalf("trial %d: Halve(%v) did not keep the whole interval: %v", trial, iv, keep)
				}
			} else {
				// A real split: both halves non-empty and near-equal, so
				// repeated halving actually spreads work.
				if keep.IsEmpty() || give.IsEmpty() {
					t.Fatalf("trial %d: Halve(%v) produced an empty half: %v, %v", trial, iv, keep, give)
				}
				diff := new(big.Int).Sub(keep.Len(), give.Len())
				if diff.CmpAbs(big.NewInt(1)) > 0 {
					t.Fatalf("trial %d: Halve(%v) unbalanced: %v vs %v", trial, iv, keep, give)
				}
			}
		}
	})
}

// TestFuzzSplitEvenTiles: the shard tiling operator produces exactly n
// ascending, pairwise-disjoint pieces whose union is the input — the
// multicore engine's initial shard layout is a partition, whatever the
// interval length (shorter-than-n intervals leave trailing empties).
func TestFuzzSplitEvenTiles(t *testing.T) {
	forUniverses(t, func(t *testing.T, u universe) {
		rng := rand.New(rand.NewSource(45))
		for trial := 0; trial < 5000; trial++ {
			iv := u.randIv(rng)
			n := 1 + rng.Intn(8)
			parts := SplitEven(iv, n)
			if len(parts) != n {
				t.Fatalf("trial %d: SplitEven(%v, %d) returned %d pieces", trial, iv, n, len(parts))
			}
			total := new(big.Int)
			set := NewSet()
			maxLen, minLen := new(big.Int), new(big.Int)
			for i, p := range parts {
				total.Add(total, p.Len())
				if ov := set.Add(p); ov.Sign() != 0 {
					t.Fatalf("trial %d: SplitEven(%v, %d) pieces overlap by %s", trial, iv, n, ov)
				}
				if !iv.ContainsInterval(p) {
					t.Fatalf("trial %d: piece %v outside %v", trial, p, iv)
				}
				if i > 0 && !p.IsEmpty() && !parts[i-1].IsEmpty() && parts[i-1].B().Cmp(p.A()) != 0 {
					t.Fatalf("trial %d: pieces %v, %v not contiguous", trial, parts[i-1], p)
				}
				l := p.Len()
				if i == 0 {
					maxLen.Set(l)
					minLen.Set(l)
				} else {
					if l.Cmp(maxLen) > 0 {
						maxLen.Set(l)
					}
					if l.Cmp(minLen) < 0 {
						minLen.Set(l)
					}
				}
			}
			if total.Cmp(iv.Len()) != 0 {
				t.Fatalf("trial %d: SplitEven(%v, %d) measure %s != %s", trial, iv, n, total, iv.Len())
			}
			if spread := new(big.Int).Sub(maxLen, minLen); spread.Cmp(big.NewInt(1)) > 0 {
				t.Fatalf("trial %d: SplitEven(%v, %d) uneven: min %s max %s", trial, iv, n, minLen, maxLen)
			}
			for i := int64(0); i < fuzzUniverse; i++ {
				x := u.num(i)
				in := false
				for _, p := range parts {
					if p.Contains(x) {
						in = true
						break
					}
				}
				if in != iv.Contains(x) {
					t.Fatalf("trial %d: number %d misplaced by SplitEven(%v, %d)", trial, i, iv, n)
				}
			}
		}
	})
}

// TestFuzzMarshalRoundTrip: the wire form is lossless — checkpoint files
// and RPC messages reconstruct the exact interval.
func TestFuzzMarshalRoundTrip(t *testing.T) {
	forUniverses(t, func(t *testing.T, u universe) {
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 2000; trial++ {
			iv := u.randIv(rng)
			text, err := iv.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			var back Interval
			if err := back.UnmarshalText(text); err != nil {
				t.Fatal(err)
			}
			// Bounds round-trip exactly (not just up to Equal): the
			// checkpoint format preserves positions of empty intervals.
			if back.A().Cmp(iv.A()) != 0 || back.B().Cmp(iv.B()) != 0 {
				t.Fatalf("trial %d: %v round-tripped to %v", trial, iv, back)
			}
		}
	})
}

// TestFuzzSetAgainstModel: a long random walk of Add/Sub over the Set,
// checked step by step against the brute-force bitset — measures, overlap
// and removal accounting, coverage queries, gaps and normalization.
func TestFuzzSetAgainstModel(t *testing.T) {
	forUniverses(t, func(t *testing.T, u universe) {
		whole := u.iv(0, fuzzUniverse)
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			s := NewSet()
			var m model
			for step := 0; step < 400; step++ {
				iv := u.randIv(rng)
				if rng.Intn(3) == 0 {
					got, want := s.Sub(iv), m.sub(u, iv)
					if got.Int64() != want {
						t.Fatalf("seed %d step %d: Sub(%v) removed %s, model %d", seed, step, iv, got, want)
					}
				} else {
					got, want := s.Add(iv), m.add(u, iv)
					if got.Int64() != want {
						t.Fatalf("seed %d step %d: Add(%v) overlap %s, model %d", seed, step, iv, got, want)
					}
				}
				if s.Total().Int64() != m.total() {
					t.Fatalf("seed %d step %d: total %s, model %d", seed, step, s.Total(), m.total())
				}
				if !m.contains(u, s) {
					t.Fatalf("seed %d step %d: membership mismatch: %s", seed, step, s)
				}
				// The runs are normalized: disjoint, non-adjacent, sorted.
				runs := s.Intervals()
				for i := 1; i < len(runs); i++ {
					if runs[i-1].B().Cmp(runs[i].A()) >= 0 {
						t.Fatalf("seed %d step %d: runs not normalized: %s", seed, step, s)
					}
				}
				// Gaps ∪ set = universe, and gaps are disjoint from the set.
				gapMeasure := new(big.Int)
				for _, gap := range s.Gaps(whole) {
					gapMeasure.Add(gapMeasure, gap.Len())
					if s.Covers(gap) || s.Add(gap.Clone()).Sign() != 0 {
						t.Fatalf("seed %d step %d: gap %v overlaps the set", seed, step, gap)
					}
					s.Sub(gap) // restore
				}
				wantGaps := fuzzUniverse - m.total()
				if gapMeasure.Int64() != wantGaps {
					t.Fatalf("seed %d step %d: gap measure %s, model %d", seed, step, gapMeasure, wantGaps)
				}
			}
		}
	})
}

// TestFuzzSetDiff: SetDiff is true set difference.
func TestFuzzSetDiff(t *testing.T) {
	forUniverses(t, func(t *testing.T, u universe) {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(200 + seed))
			a, b := NewSet(), NewSet()
			var ma, mb model
			for i := 0; i < 12; i++ {
				iv := u.randIv(rng)
				a.Add(iv)
				ma.add(u, iv)
				iv = u.randIv(rng)
				b.Add(iv)
				mb.add(u, iv)
			}
			d := SetDiff(a, b)
			for i := int64(0); i < fuzzUniverse; i++ {
				want := ma[i] && !mb[i]
				if d.Covers(u.iv(i, i+1)) != want {
					t.Fatalf("seed %d: diff wrong at %d: %s \\ %s = %s", seed, i, a, b, d)
				}
			}
		}
	})
}
