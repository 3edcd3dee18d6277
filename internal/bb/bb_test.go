package bb

import (
	"testing"

	"repro/internal/tree"
)

// toyProblem is a uniform tree whose leaf costs are a fixed function of the
// rank path, with a configurable bound quality, letting tests control
// pruning behaviour precisely.
type toyProblem struct {
	shape tree.Uniform
	path  []int
	// exactBound makes Bound() return the true subtree minimum; false
	// returns 0 (never prunes).
	exactBound bool
}

func newToy(p, k int, exact bool) *toyProblem {
	return &toyProblem{shape: tree.Uniform{P: p, K: k}, exactBound: exact}
}

func (t *toyProblem) Shape() tree.Shape { return t.shape }
func (t *toyProblem) Reset()            { t.path = t.path[:0] }
func (t *toyProblem) Descend(rank int)  { t.path = append(t.path, rank) }
func (t *toyProblem) Ascend()           { t.path = t.path[:len(t.path)-1] }

// leafCost: sum of (rank+1)*depth weights — deterministic, spread out, with
// a unique minimum at the all-zero path.
func (t *toyProblem) costOf(path []int) int64 {
	var c int64 = 100
	for d, r := range path {
		c += int64(r) * int64(d+1) * 7 % 31
	}
	return c
}

func (t *toyProblem) Cost() int64 { return t.costOf(t.path) }

func (t *toyProblem) Bound(int64) int64 {
	if !t.exactBound {
		return 0
	}
	// The minimum completion keeps all remaining ranks at 0, which add
	// nothing: the current partial cost is the exact subtree minimum.
	return t.costOf(t.path)
}

func (t *toyProblem) BoundChild(rank int, cutoff int64) int64 {
	return BoundByDescent(t, rank, cutoff)
}

// TestSolveFindsEnumerateOptimum: with a useless bound, Solve degenerates
// to full enumeration and both agree.
func TestSolveFindsEnumerateOptimum(t *testing.T) {
	p := newToy(5, 3, false)
	brute, bstats := Enumerate(p)
	sol, stats := Solve(p, Infinity)
	if sol.Cost != brute.Cost {
		t.Fatalf("solve %d != enumerate %d", sol.Cost, brute.Cost)
	}
	if stats.Leaves != bstats.Leaves {
		t.Fatalf("unpruned solve visited %d leaves, enumerate %d", stats.Leaves, bstats.Leaves)
	}
	if stats.Pruned != 0 {
		t.Fatalf("useless bound pruned %d subtrees", stats.Pruned)
	}
}

// TestSolvePrunesWithExactBound: an exact bound prunes everything except
// one root-to-leaf spine.
func TestSolvePrunesWithExactBound(t *testing.T) {
	p := newToy(6, 3, true)
	sol, stats := Solve(p, Infinity)
	brute, _ := Enumerate(p)
	if sol.Cost != brute.Cost {
		t.Fatalf("solve %d != enumerate %d", sol.Cost, brute.Cost)
	}
	if stats.Pruned == 0 {
		t.Fatal("exact bound never pruned")
	}
	if stats.Explored >= 3*729 {
		t.Fatalf("exact bound still explored %d nodes", stats.Explored)
	}
}

// TestSolveWithOptimalPrime: priming with the exact optimum finds no
// improving leaf but proves the bound.
func TestSolveWithOptimalPrime(t *testing.T) {
	p := newToy(4, 3, true)
	brute, _ := Enumerate(p)
	sol, stats := Solve(p, brute.Cost)
	if sol.Valid() {
		t.Fatalf("primed-at-optimum run claims an improving solution %v", sol)
	}
	if stats.Improved != 0 {
		t.Fatalf("improved %d times below the optimum", stats.Improved)
	}
	// Priming one above the optimum recovers the solution itself.
	sol, _ = Solve(p, brute.Cost+1)
	if !sol.Valid() || sol.Cost != brute.Cost {
		t.Fatalf("primed-above run found %v, want cost %d", sol, brute.Cost)
	}
}

// TestSolutionClone: clones are deep.
func TestSolutionClone(t *testing.T) {
	s := Solution{Cost: 5, Path: []int{1, 2, 3}}
	c := s.Clone()
	c.Path[0] = 9
	if s.Path[0] != 1 {
		t.Fatal("clone shares the path slice")
	}
	var empty Solution
	if empty.Valid() {
		t.Fatal("zero solution valid")
	}
	if empty.Clone().Path != nil {
		t.Fatal("clone invented a path")
	}
}

// TestStatsAdd accumulates.
func TestStatsAdd(t *testing.T) {
	a := Stats{Explored: 1, Pruned: 2, Leaves: 3, Improved: 4}
	a.Add(Stats{Explored: 10, Pruned: 20, Leaves: 30, Improved: 40})
	if a != (Stats{Explored: 11, Pruned: 22, Leaves: 33, Improved: 44}) {
		t.Fatalf("Add = %+v", a)
	}
}

// TestZeroDepthShape: a depth-0 tree has no leaves to visit; Solve returns
// an invalid solution rather than crashing.
func TestZeroDepthShape(t *testing.T) {
	p := newToy(0, 1, false)
	sol, stats := Solve(p, Infinity)
	if sol.Valid() || stats.Explored != 0 {
		t.Fatalf("zero-depth solve = %v, %+v", sol, stats)
	}
	sol, _ = Enumerate(p)
	if sol.Valid() {
		t.Fatalf("zero-depth enumerate = %v", sol)
	}
}
