package interval

// Covers reports whether iv ⊆ s. The empty interval is covered by any set.
// Only the randomized set laws ask it, so it lives beside them.
func (s *Set) Covers(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	for _, run := range s.ivs {
		if run.a.Cmp(iv.a) <= 0 && iv.b.Cmp(run.b) <= 0 {
			return true
		}
	}
	return false
}
