// Interval sets: finite unions of disjoint half-open intervals, with exact
// measure accounting. The conformance layer of internal/harness uses
// them to state the paper's invariants mechanically — "the completed regions
// plus the checkpointed remainders partition the root range" is a Set
// equation — and the farmer-side INTERVALS content is itself such a set.
package interval

import "strings"

// Set is a union of disjoint, non-adjacent, ascending half-open intervals.
// The zero value is the empty set. A Set never writes a bound in place,
// so it shares spilled bounds with its inputs and outputs freely.
// A Set is not safe for concurrent use.
type Set struct {
	ivs []Interval // sorted by A; pairwise disjoint with gaps between
}

// NewSet returns a set holding the given intervals (empties are ignored,
// overlaps merged).
func NewSet(ivs ...Interval) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set { return &Set{ivs: append([]Interval(nil), s.ivs...)} }

// Count returns the number of disjoint runs in the set.
func (s *Set) Count() int { return len(s.ivs) }

// IsEmpty reports whether the set has zero measure.
func (s *Set) IsEmpty() bool { return len(s.ivs) == 0 }

// Intervals returns the runs in ascending order.
func (s *Set) Intervals() []Interval { return append([]Interval(nil), s.ivs...) }

// Total returns the measure of the set: the sum of the run lengths.
func (s *Set) Total() Num {
	var t Num
	for _, iv := range s.ivs {
		t.Add(t, iv.Width())
	}
	return t
}

// Add unions iv into the set and returns the measure of iv ∩ s before the
// call — the amount of re-covered ground, which is exactly the redundant
// work the paper's fault-tolerance mechanism trades for checkpoint sparsity.
// Adding an empty interval is a no-op returning zero.
func (s *Set) Add(iv Interval) Num {
	var overlap Num
	if iv.IsEmpty() {
		return overlap
	}
	a, b := iv.a, iv.b
	// Find the insertion window: runs strictly before a stay; runs that
	// overlap or touch [a,b) are merged into it.
	lo := 0
	for lo < len(s.ivs) && s.ivs[lo].b.Cmp(a) < 0 {
		lo++
	}
	hi := lo
	for hi < len(s.ivs) && s.ivs[hi].a.Cmp(b) <= 0 {
		run := s.ivs[hi]
		// Overlap measure of [a,b) ∩ run.
		overlap.Add(overlap, Of(a, b).Intersect(run).Width())
		a, b = minNum(a, run.a), maxNum(b, run.b)
		hi++
	}
	s.ivs = append(s.ivs[:lo], append([]Interval{{a: a, b: b}}, s.ivs[hi:]...)...)
	return overlap
}

// Sub removes iv from the set and returns the measure actually removed
// (the measure of iv ∩ s before the call).
func (s *Set) Sub(iv Interval) Num {
	var removed Num
	if iv.IsEmpty() || len(s.ivs) == 0 {
		return removed
	}
	out := s.ivs[:0:0]
	for _, run := range s.ivs {
		if run.b.Cmp(iv.a) <= 0 || run.a.Cmp(iv.b) >= 0 {
			out = append(out, run)
			continue
		}
		cut := run.Intersect(iv)
		removed.Add(removed, cut.Width())
		if run.a.Cmp(cut.a) < 0 {
			out = append(out, Interval{a: run.a, b: cut.a})
		}
		if cut.b.Cmp(run.b) < 0 {
			out = append(out, Interval{a: cut.b, b: run.b})
		}
	}
	s.ivs = out
	return removed
}

// Gaps returns universe ∖ s: the uncovered runs inside the universe, in
// ascending order. A non-empty result is, for the harness, a hole in the
// work accounting — leaf numbers no worker and no checkpoint owns.
func (s *Set) Gaps(universe Interval) []Interval {
	var gaps []Interval
	if universe.IsEmpty() {
		return gaps
	}
	cursor, end := universe.a, universe.b
	for _, run := range s.ivs {
		if run.b.Cmp(cursor) <= 0 {
			continue
		}
		if run.a.Cmp(end) >= 0 {
			break
		}
		if run.a.Cmp(cursor) > 0 {
			gaps = append(gaps, Interval{a: cursor, b: minNum(run.a, end)})
		}
		cursor = maxNum(cursor, run.b)
		if cursor.Cmp(end) >= 0 {
			return gaps
		}
	}
	if cursor.Cmp(end) < 0 {
		gaps = append(gaps, Interval{a: cursor, b: end})
	}
	return gaps
}

// Equal reports whether the two sets denote the same set of numbers.
func (s *Set) Equal(o *Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if !s.ivs[i].Equal(o.ivs[i]) {
			return false
		}
	}
	return true
}

// String renders the set as "{[a,b) [c,d) ...}" for traces and failures.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(iv.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// SetDiff returns a ∖ b as a fresh set.
func SetDiff(a, b *Set) *Set {
	d := a.Clone()
	for _, iv := range b.ivs {
		d.Sub(iv)
	}
	return d
}
