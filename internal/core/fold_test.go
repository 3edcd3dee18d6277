package core

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/interval"
	"repro/internal/tree"
)

// TestFigure4FoldUnfold reproduces the paper's Figure 4 scenario: an
// interval unfolds into a minimal active list whose fold gives back exactly
// the interval.
func TestFigure4FoldUnfold(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	// [5, 19) inside a 24-leaf tree crosses several subtree boundaries.
	iv := interval.FromInt64(5, 19)
	nodes := Unfold(nb, iv)
	if len(nodes) == 0 {
		t.Fatal("unfold returned no nodes")
	}
	back, err := FoldStrict(nb, nodes)
	if err != nil {
		t.Fatalf("fold strict: %v", err)
	}
	if !back.Equal(iv) {
		t.Fatalf("fold(unfold([5,19))) = %v", back)
	}
}

// TestUnfoldMinimality checks eq. (11): every unfolded node's range is
// inside the interval while its father's is not, which makes the list
// minimal and unique.
func TestUnfoldMinimality(t *testing.T) {
	shapes := []tree.Shape{
		tree.Permutation{N: 5},
		tree.Binary{P: 6},
		tree.Uniform{P: 4, K: 3},
	}
	rng := rand.New(rand.NewSource(11))
	for _, s := range shapes {
		nb := NewNumbering(s)
		total := nb.LeafCount().Int64()
		for trial := 0; trial < 100; trial++ {
			a := rng.Int63n(total)
			b := a + rng.Int63n(total-a) + 1
			iv := interval.FromInt64(a, b)
			for _, n := range Unfold(nb, iv) {
				if !iv.ContainsInterval(nb.Range(n.Ranks)) {
					t.Fatalf("%s: node %v range %v escapes %v", s.Name(), n, nb.Range(n.Ranks), iv)
				}
				if len(n.Ranks) > 0 {
					father := n.Ranks[:len(n.Ranks)-1]
					if iv.ContainsInterval(nb.Range(father)) {
						t.Fatalf("%s: father of %v is inside %v: list not minimal", s.Name(), n, iv)
					}
				} else if !iv.ContainsInterval(nb.RootRange()) {
					t.Fatalf("%s: root emitted but root range not inside %v", s.Name(), iv)
				}
			}
		}
	}
}

// TestUnfoldFoldRoundTrip is the central property of §3.4–3.5: for every
// interval inside the tree, fold(unfold(iv)) == iv, and the unfolded ranges
// tile iv exactly with no gaps or overlaps (checked by FoldStrict).
func TestUnfoldFoldRoundTrip(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 6})
	total := nb.LeafCount().Int64() // 720
	f := func(x, y uint16) bool {
		a := int64(x) % total
		b := int64(y) % total
		if a > b {
			a, b = b, a
		}
		b++ // non-empty
		iv := interval.FromInt64(a, b)
		nodes := Unfold(nb, iv)
		back, err := FoldStrict(nb, nodes)
		if err != nil {
			return false
		}
		return back.Equal(iv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestUnfoldCost checks the §3.5 cost guarantee: the number of emitted
// nodes is bounded by 2·P·K (at most one straddling node decomposed per
// boundary per depth, each contributing at most K-1 collected siblings).
func TestUnfoldCost(t *testing.T) {
	shape := tree.Permutation{N: 12}
	nb := NewNumbering(shape)
	total := nb.LeafCount().Big()
	rng := rand.New(rand.NewSource(3))
	limit := 2 * shape.Depth() * shape.Branching(0)
	for trial := 0; trial < 50; trial++ {
		a := new(big.Int).Rand(rng, total)
		b := new(big.Int).Rand(rng, total)
		if a.Cmp(b) > 0 {
			a, b = b, a
		}
		b.Add(b, big.NewInt(1))
		nodes := Unfold(nb, interval.New(a, b))
		if len(nodes) > limit {
			t.Fatalf("unfold of [%s,%s) returned %d nodes > limit %d", a, b, len(nodes), limit)
		}
	}
}

// TestUnfoldWholeTree: unfolding the root range yields exactly the root.
func TestUnfoldWholeTree(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 5})
	nodes := Unfold(nb, nb.RootRange())
	if len(nodes) != 1 || len(nodes[0].Ranks) != 0 {
		t.Fatalf("unfold(root range) = %v, want the single root node", nodes)
	}
}

// TestUnfoldEmptyAndOutside: empty intervals and intervals outside the tree
// unfold to nothing.
func TestUnfoldEmptyAndOutside(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	cases := []interval.Interval{
		interval.FromInt64(5, 5),
		interval.FromInt64(7, 3),
		interval.FromInt64(24, 50),
		interval.FromInt64(-10, 0),
	}
	for _, iv := range cases {
		if nodes := Unfold(nb, iv); len(nodes) != 0 {
			t.Errorf("unfold(%v) = %v, want empty", iv, nodes)
		}
	}
}

// TestUnfoldClampsToTree: an interval overlapping the tree partially is
// clamped to the root range.
func TestUnfoldClampsToTree(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	nodes := Unfold(nb, interval.FromInt64(20, 100))
	back, err := FoldStrict(nb, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(interval.FromInt64(20, 24)) {
		t.Fatalf("fold(unfold([20,100))) = %v, want [20,24)", back)
	}
}

// TestFoldSingleNode: the fold of one node is its range (eq. 10 degenerate
// case).
func TestFoldSingleNode(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	n := NodeRef{Ranks: []int{2, 1}}
	iv, err := Fold(nb, []NodeRef{n})
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Equal(nb.Range(n.Ranks)) {
		t.Fatalf("fold({%v}) = %v, want %v", n, iv, nb.Range(n.Ranks))
	}
}

// TestFoldStrictDetectsGaps: a non-contiguous list is rejected.
func TestFoldStrictDetectsGaps(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	// Nodes <0> and <2> leave the subtree of <1> uncovered.
	list := []NodeRef{{Ranks: []int{0}}, {Ranks: []int{2}}}
	if _, err := FoldStrict(nb, list); err == nil {
		t.Fatal("gap not detected")
	}
	// Plain Fold still reports the hull — the over-approximation a real
	// DFS frontier with pruned holes produces.
	iv, err := Fold(nb, list)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Equal(interval.FromInt64(0, 18)) {
		t.Fatalf("fold hull = %v, want [0,18)", iv)
	}
}

// TestFoldEmptyList errors.
func TestFoldEmptyList(t *testing.T) {
	nb := NewNumbering(tree.Permutation{N: 4})
	if _, err := Fold(nb, nil); err == nil {
		t.Fatal("fold of empty list accepted")
	}
}

// TestNodeRefString covers the diagnostic rendering.
func TestNodeRefString(t *testing.T) {
	if got := (NodeRef{}).String(); got != "<>" {
		t.Errorf("root String() = %q", got)
	}
	if got := (NodeRef{Ranks: []int{2, 0, 1}}).String(); got != "<2.0.1>" {
		t.Errorf("String() = %q", got)
	}
}
