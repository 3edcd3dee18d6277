package tree

import (
	"math/big"
	"testing"
	"testing/quick"
)

// TestPermutationShape checks the §3.1 permutation-tree structure: N-d
// children at depth d, leaves at depth N, and condition (4):
// |sons(n)| = |sons(father(n))| - 1.
func TestPermutationShape(t *testing.T) {
	p := Permutation{N: 5}
	if p.Depth() != 5 {
		t.Fatalf("depth = %d", p.Depth())
	}
	for d := 0; d < 5; d++ {
		if got := p.Branching(d); got != 5-d {
			t.Errorf("branching(%d) = %d, want %d", d, got, 5-d)
		}
		if d > 0 && p.Branching(d) != p.Branching(d-1)-1 {
			t.Errorf("condition (4) violated at depth %d", d)
		}
	}
}

// TestPermutationWeights checks eq. (3): weight(depth) = (N-depth)!.
func TestPermutationWeights(t *testing.T) {
	w := Weights(Permutation{N: 6})
	want := []int64{720, 120, 24, 6, 2, 1, 1}
	for d, x := range want {
		if w[d].Int64() != x {
			t.Errorf("weight(%d) = %s, want %d", d, w[d], x)
		}
	}
}

// TestBinaryWeights checks eq. (2): weight(depth) = 2^(P-depth).
func TestBinaryWeights(t *testing.T) {
	w := Weights(Binary{P: 8})
	for d := 0; d <= 8; d++ {
		if want := int64(1) << (8 - d); w[d].Int64() != want {
			t.Errorf("weight(%d) = %s, want %d", d, w[d], want)
		}
	}
}

// TestUniformWeights: K^(P-depth).
func TestUniformWeights(t *testing.T) {
	w := Weights(Uniform{P: 4, K: 3})
	want := []int64{81, 27, 9, 3, 1}
	for d, x := range want {
		if w[d].Int64() != x {
			t.Errorf("weight(%d) = %s, want %d", d, w[d], x)
		}
	}
}

// TestWeightRecurrence is eq. (1) as a property: the weight of a node
// equals the sum of its children's weights, for every shape and depth.
func TestWeightRecurrence(t *testing.T) {
	shapes := []Shape{Permutation{N: 9}, Binary{P: 12}, Uniform{P: 6, K: 4}}
	for _, s := range shapes {
		w := Weights(s)
		for d := 0; d < s.Depth(); d++ {
			sum := new(big.Int).Mul(w[d+1], big.NewInt(int64(s.Branching(d))))
			if sum.Cmp(w[d]) != 0 {
				t.Errorf("%s: weight(%d)=%s but %d children of weight %s", s.Name(), d, w[d], s.Branching(d), w[d+1])
			}
		}
	}
}

// TestLeafCountFiftyFactorial pins the Ta056 scale: the 50-job tree has
// exactly 50! leaves, a 65-digit number.
func TestLeafCountFiftyFactorial(t *testing.T) {
	want, ok := new(big.Int).SetString("30414093201713378043612608166064768844377641568960512000000000000", 10)
	if !ok {
		t.Fatal("bad literal")
	}
	if got := LeafCount(Permutation{N: 50}); got.Cmp(want) != 0 {
		t.Fatalf("50! = %s, want %s", got, want)
	}
}

// TestWeightsPanicOnBadShape: malformed shapes are programming errors.
func TestWeightsPanicOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-positive branching")
		}
	}()
	Weights(Uniform{P: 3, K: 0})
}

// TestValidate covers the rank-path guard.
func TestValidate(t *testing.T) {
	s := Permutation{N: 4}
	if err := Validate(s, []int{3, 2, 1, 0}); err != nil {
		t.Errorf("valid deepest path rejected: %v", err)
	}
	if err := Validate(s, nil); err != nil {
		t.Errorf("root rejected: %v", err)
	}
	if err := Validate(s, []int{4}); err == nil {
		t.Error("rank == branching accepted")
	}
	if err := Validate(s, []int{0, -1}); err == nil {
		t.Error("negative rank accepted")
	}
	if err := Validate(s, []int{0, 0, 0, 0, 0}); err == nil {
		t.Error("path deeper than tree accepted")
	}
}

// TestValidateProperty: any rank vector within the branching limits passes.
func TestValidateProperty(t *testing.T) {
	s := Binary{P: 16}
	f := func(bits uint16, length uint8) bool {
		l := int(length) % 17
		ranks := make([]int, l)
		for i := range ranks {
			ranks[i] = int((bits >> i) & 1)
		}
		return Validate(s, ranks) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNamesAndMaxPath covers the descriptive helpers, and the
// root-to-leaf node count Depth()+1.
func TestNamesAndMaxPath(t *testing.T) {
	if (Permutation{N: 3}).Name() != "permutation(3)" {
		t.Error("permutation name")
	}
	if (Binary{P: 4}).Name() != "binary(4)" {
		t.Error("binary name")
	}
	if (Uniform{P: 2, K: 5}).Name() != "uniform(5^2)" {
		t.Error("uniform name")
	}
	if (Permutation{N: 7}).Depth()+1 != 8 {
		t.Error("max path")
	}
}
