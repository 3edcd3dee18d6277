package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/interval"
	"repro/internal/tree"
)

// TestFigure1Weights reproduces the paper's Figure 1: the per-depth weights
// of a permutation tree. For P=4 the weight vector is 24, 6, 2, 1, 1.
func TestFigure1Weights(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	want := []int64{24, 6, 2, 1, 1}
	for d, w := range want {
		if nb.Weight(d).Int64() != w {
			t.Errorf("weight(depth %d) = %s, want %d", d, nb.Weight(d), w)
		}
	}
	if nb.LeafCount().Int64() != 24 {
		t.Errorf("leaf count = %s, want 24", nb.LeafCount())
	}
}

// TestBinaryWeights checks eq. (2): weight = 2^(P-depth).
func TestBinaryWeights(t *testing.T) {
	nb := NewNumbering(tree.Binary{P: 10})
	for d := 0; d <= 10; d++ {
		want := int64(1) << (10 - d)
		if nb.Weight(d).Int64() != want {
			t.Errorf("binary weight(depth %d) = %s, want %d", d, nb.Weight(d), want)
		}
	}
}

// TestFigure2Numbers reproduces the numbering of Figure 2 on a small
// permutation tree: leaf numbers enumerate 0..N!-1 in depth-first order and
// each internal node's number equals its leftmost leaf's.
func TestFigure2Numbers(t *testing.T) {
	shape := tree.Permutation{N: 3}
	nb := NewNumbering(shape)
	// Leaves in DFS order get consecutive numbers.
	wantLeaf := int64(0)
	var walk func(ranks []int)
	walk = func(ranks []int) {
		d := len(ranks)
		if d == shape.Depth() {
			if got := nb.Number(ranks).Int64(); got != wantLeaf {
				t.Fatalf("leaf %v number = %d, want %d", ranks, got, wantLeaf)
			}
			wantLeaf++
			return
		}
		// Internal node number equals the number of its first child.
		first := append(append([]int(nil), ranks...), 0)
		if nb.Number(ranks).Cmp(nb.Number(first)) != 0 {
			t.Fatalf("node %v number %s != first child number %s", ranks, nb.Number(ranks), nb.Number(first))
		}
		for r := 0; r < shape.Branching(d); r++ {
			walk(append(append([]int(nil), ranks...), r))
		}
	}
	walk(nil)
	if wantLeaf != 6 {
		t.Fatalf("visited %d leaves, want 6", wantLeaf)
	}
}

// TestFigure3Ranges reproduces Figure 3: the range of a node is the union
// of its children's ranges, children's ranges abut, and every range nests
// inside the father's.
func TestFigure3Ranges(t *testing.T) {
	shape := tree.Permutation{N: 4}
	nb := NewNumbering(shape)
	var walk func(ranks []int)
	walk = func(ranks []int) {
		d := len(ranks)
		if d == shape.Depth() {
			return
		}
		parent := nb.Range(ranks)
		prevEnd := parent.A()
		for r := 0; r < shape.Branching(d); r++ {
			child := append(append([]int(nil), ranks...), r)
			cr := nb.Range(child)
			if !parent.ContainsInterval(cr) {
				t.Fatalf("child %v range %v escapes parent %v range %v", child, cr, ranks, parent)
			}
			if cr.A().Cmp(prevEnd) != 0 {
				t.Fatalf("child %v range %v does not abut previous end %s", child, cr, prevEnd)
			}
			prevEnd = cr.B()
			walk(child)
		}
		if prevEnd.Cmp(parent.B()) != 0 {
			t.Fatalf("children of %v tile up to %s, parent ends at %s", ranks, prevEnd, parent.B())
		}
	}
	walk(nil)
}

// TestNumberBijection checks that PathOfNumber inverts Number on leaves for
// several shapes, including a shape large enough that numbers exceed int64.
func TestNumberBijection(t *testing.T) {
	shapes := []tree.Shape{
		tree.Permutation{N: 5},
		tree.Binary{P: 7},
		tree.Uniform{P: 4, K: 3},
		tree.Permutation{N: 30}, // 30! >> 2^64: exercises big paths
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range shapes {
		nb := NewNumbering(s)
		for trial := 0; trial < 200; trial++ {
			// Random leaf path.
			ranks := make([]int, s.Depth())
			for d := range ranks {
				ranks[d] = rng.Intn(s.Branching(d))
			}
			n := nb.Number(ranks)
			back, err := nb.PathOfNumber(n)
			if err != nil {
				t.Fatalf("%s: PathOfNumber(%s): %v", s.Name(), n, err)
			}
			for d := range ranks {
				if back[d] != ranks[d] {
					t.Fatalf("%s: path %v -> %s -> %v", s.Name(), ranks, n, back)
				}
			}
		}
	}
}

// TestNumberMonotonic property: for random leaf pairs, DFS order (lexicographic
// rank order) agrees with number order.
func TestNumberMonotonic(t *testing.T) {
	shape := tree.Permutation{N: 6}
	nb := NewNumbering(shape)
	gen := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		ranks := make([]int, shape.Depth())
		for d := range ranks {
			ranks[d] = rng.Intn(shape.Branching(d))
		}
		return ranks
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		cmpLex := 0
		for d := range a {
			if a[d] != b[d] {
				if a[d] < b[d] {
					cmpLex = -1
				} else {
					cmpLex = 1
				}
				break
			}
		}
		cmpNum := nb.Number(a).Cmp(nb.Number(b))
		return cmpLex == cmpNum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPathOfNumberRejectsOutside checks the domain guard.
func TestPathOfNumberRejectsOutside(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	if _, err := nb.PathOfNumber(interval.NumInt64(-1)); err == nil {
		t.Error("negative number accepted")
	}
	if _, err := nb.PathOfNumber(interval.NumInt64(24)); err == nil {
		t.Error("number == leaf count accepted")
	}
	if _, err := nb.PathOfNumber(interval.NumInt64(23)); err != nil {
		t.Errorf("last leaf rejected: %v", err)
	}
}

// TestRootRange checks INTERVALS initialization (§4.3): the root range is
// [0, leafCount).
func TestRootRange(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 5})
	r := nb.RootRange()
	if r.A().Sign() != 0 || r.B().Int64() != 120 {
		t.Fatalf("root range = %v, want [0,120)", r)
	}
}
