package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bb"
	"repro/internal/interval"
	"repro/internal/tree"
)

// Tests of Explorer.Restrict invoked while the walk is deep in interior
// mode — the boundary re-derivation edge cases of DESIGN.md §1. In interior
// mode node numbers below the entry depth are deliberately stale; Restrict
// must materialize them (eq. 6 folds along the rank path), drop back to
// boundary mode, and re-derive interior status against the new bounds. A
// wrong re-derivation either loses leaves (numbers silently skipped) or
// leaks them (numbers explored twice after the matching donation).

// driveIntoInterior steps e until the walk is in interior mode with at
// least margin levels between the entry depth and the current depth, or
// fails the test. Small step slices keep the position mid-subtree.
func driveIntoInterior(t *testing.T, e *Explorer, margin int) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if e.interior >= 0 && e.depth >= e.interior+margin {
			return
		}
		if _, done := e.Step(1); done {
			t.Fatalf("explorer finished before reaching interior depth (interior=%d depth=%d)", e.interior, e.depth)
		}
	}
	t.Fatalf("never reached interior mode with margin %d", margin)
}

// TestRestrictDeepInteriorExactCoverage: on a uniform tree with a counting
// problem (nothing prunes), restrict the end mid-interior and explore the
// carved-off part independently: every leaf of the original interval must
// be visited exactly once across the two explorers — no loss, no overlap.
func TestRestrictDeepInteriorExactCoverage(t *testing.T) {
	shape := tree.Uniform{P: 7, K: 3} // 2187 leaves
	nb := NewNumbering(shape)
	total := nb.LeafCount().Int64()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		// The span must fit an aligned depth≥2 subtree strictly inside,
		// or interior mode never engages (every node then straddles a
		// boundary, which is the boundary-walk tests' territory).
		const minSpan = 64
		a := rng.Int63n(total - minSpan)
		b := a + minSpan + rng.Int63n(total-a-minSpan)
		iv := interval.FromInt64(a, b)

		count := &countingProblem{shape: shape, visited: make(map[int64]int)}
		e := NewExplorer(count, nb, iv, bb.Infinity)
		driveIntoInterior(t, e, 2)

		// Cut the remainder at a point that lands inside the current
		// interior subtree whenever possible: between the next number
		// and the interval end.
		rem := e.Remaining()
		if rem.IsEmpty() {
			t.Fatalf("trial %d: interior walk with empty remainder", trial)
		}
		span := new(big.Int).Sub(rem.B(), rem.A())
		cut := new(big.Int).Rand(rng, span)
		cut.Add(cut, rem.A())
		keep, donated := rem.SplitAt(interval.NumBig(cut))

		e.Restrict(keep)
		if e.interior != -1 {
			t.Fatalf("trial %d: Restrict left the walk in interior mode", trial)
		}
		e.Run(1 << 10)

		e2 := NewExplorer(count, nb, donated, bb.Infinity)
		e2.Run(1 << 10)

		for n := a; n < b; n++ {
			if got := count.visited[n]; got != 1 {
				t.Fatalf("trial %d: [%d,%d) cut at %s: leaf %d visited %d times", trial, a, b, cut, n, got)
			}
		}
		for n, c := range count.visited {
			if n < a || n >= b {
				t.Fatalf("trial %d: leaf %d outside [%d,%d) visited %d times", trial, n, a, b, c)
			}
		}
	}
}

// TestRestrictDeepInteriorAdvancesLo: the other boundary — a duplicated
// interval whose beginning was advanced by a faster sibling (§4.2). The
// walk is deep inside an interior subtree when lo jumps forward past it;
// already-visited leaves stay visited (no rewind) and the leaves before the
// new lo that were not yet visited must be skipped, never revisited.
func TestRestrictDeepInteriorAdvancesLo(t *testing.T) {
	shape := tree.Uniform{P: 7, K: 3}
	nb := NewNumbering(shape)
	total := nb.LeafCount().Int64()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		count := &countingProblem{shape: shape, visited: make(map[int64]int)}
		e := NewExplorer(count, nb, nb.RootRange(), bb.Infinity)
		driveIntoInterior(t, e, 2)

		visitedBefore := int64(len(count.visited))
		// Advance lo beyond the current position by a random stride.
		newLo := visitedBefore + 1 + rng.Int63n(total-visitedBefore-1)
		e.Restrict(interval.New(big.NewInt(newLo), nb.LeafCount().Big()))
		e.Run(1 << 10)

		// Exactly the prefix visited before the restriction plus the
		// suffix [newLo, total) — and nothing in between — each once.
		for n := int64(0); n < total; n++ {
			want := 0
			if n < visitedBefore || n >= newLo {
				want = 1
			}
			if got := count.visited[n]; got != want {
				t.Fatalf("trial %d: lo %d->%d after %d leaves: leaf %d visited %d times, want %d",
					trial, visitedBefore, newLo, visitedBefore, n, got, want)
			}
		}
	}
}

// TestRestrictDeepInteriorToEmpty: restricting the interval to nothing
// while deep inside a subtree must finish the walk immediately and leave
// the explorer reusable via Reassign.
func TestRestrictDeepInteriorToEmpty(t *testing.T) {
	p := flowshopProblem(8, 5, 5)
	nb := NewNumbering(p.Shape())
	e := NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
	driveIntoInterior(t, e, 2)

	rem := e.Remaining()
	e.Restrict(interval.New(rem.B(), rem.B()))
	if !e.Done() {
		// One step may be needed to notice the exhausted bounds.
		if _, done := e.Step(1); !done {
			t.Fatal("explorer kept walking after Restrict to empty")
		}
	}

	// The engine must be cleanly reusable afterwards.
	want, _ := bb.Solve(flowshopProblem(8, 5, 5), bb.Infinity)
	e.Reassign(nb.RootRange())
	sol, _ := e.Run(1 << 12)
	if sol.Cost != want.Cost {
		t.Fatalf("reused explorer found %d, want %d", sol.Cost, want.Cost)
	}
}

// TestRestrictInteriorFlowshopOptimality: the domain-level end-to-end
// version — repeatedly restrict a flowshop exploration mid-interior, hand
// the carved parts to fresh explorers, and require the union to find the
// sequential optimum (the incumbent is NOT shared between parts, so any
// lost leaf shows up as a wrong cost on some trial).
func TestRestrictInteriorFlowshopOptimality(t *testing.T) {
	p := flowshopProblem(9, 5, 11)
	nb := NewNumbering(p.Shape())
	want, _ := bb.Solve(flowshopProblem(9, 5, 11), bb.Infinity)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		best := bb.Infinity
		queue := []interval.Interval{nb.RootRange()}
		for len(queue) > 0 {
			iv := queue[0]
			queue = queue[1:]
			e := NewExplorer(p, nb, iv, bb.Infinity)
			for !e.Done() {
				e.Step(int64(1 + rng.Intn(64)))
				if e.interior >= 0 && e.depth > e.interior && rng.Intn(2) == 0 {
					rem := e.Remaining()
					if rem.IsEmpty() {
						continue
					}
					span := new(big.Int).Sub(rem.B(), rem.A())
					if span.Sign() <= 0 {
						continue
					}
					cut := new(big.Int).Rand(rng, span)
					cut.Add(cut, rem.A())
					keep, donated := rem.SplitAt(interval.NumBig(cut))
					e.Restrict(keep)
					if !donated.IsEmpty() {
						queue = append(queue, donated)
					}
				}
			}
			if b := e.Best(); b.Cost < best {
				best = b.Cost
			}
		}
		if best != want.Cost {
			t.Fatalf("trial %d: union of interior-restricted parts found %d, want %d", trial, best, want.Cost)
		}
	}
}
