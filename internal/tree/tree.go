// Package tree models the regular search trees over which the paper's
// interval coding is defined (Mezmaz, Melab, Talbi; INRIA RR-5945, §3).
//
// A tree is regular when every node at the same depth has the same number of
// children. For such trees the weight of a node — the number of leaves of the
// subtree rooted at it (eq. 1) — depends only on the node's depth, so a single
// per-depth weight vector computed once at startup replaces per-node weights
// (paper §3.1, Figure 1).
package tree

import (
	"fmt"
	"math/big"
)

// Shape describes a regular search tree. The root is at depth 0 and every
// leaf is at depth Depth(). Branching(d) reports how many children a node at
// depth d has; it must be positive for every d in [0, Depth()).
type Shape interface {
	// Depth returns P, the depth shared by all leaves.
	Depth() int
	// Branching returns the number of children of a node at the given
	// depth. It is only defined for depths in [0, Depth()).
	Branching(depth int) int
	// Name returns a short human-readable description of the shape.
	Name() string
}

// Permutation is the shape of the tree associated with problems whose
// solutions are permutations of N elements (paper §3.1): a node at depth d
// has N-d children, leaves live at depth N, and the weight of a node at
// depth d is (N-d)! (eq. 3).
type Permutation struct {
	// N is the number of elements being permuted.
	N int
}

// Depth returns N: a leaf fixes all N elements.
func (p Permutation) Depth() int { return p.N }

// Branching returns N-depth, the number of elements still free.
func (p Permutation) Branching(depth int) int { return p.N - depth }

// Name implements Shape.
func (p Permutation) Name() string { return fmt.Sprintf("permutation(%d)", p.N) }

// Binary is the shape of a complete binary tree of depth P. The weight of a
// node at depth d is 2^(P-d) (eq. 2).
type Binary struct {
	// P is the depth of the leaves.
	P int
}

// Depth implements Shape.
func (b Binary) Depth() int { return b.P }

// Branching implements Shape: every internal node has two children.
func (b Binary) Branching(int) int { return 2 }

// Name implements Shape.
func (b Binary) Name() string { return fmt.Sprintf("binary(%d)", b.P) }

// Uniform is the shape of a complete K-ary tree of depth P. The weight of a
// node at depth d is K^(P-d).
type Uniform struct {
	// P is the depth of the leaves.
	P int
	// K is the branching factor of every internal node.
	K int
}

// Depth implements Shape.
func (u Uniform) Depth() int { return u.P }

// Branching implements Shape.
func (u Uniform) Branching(int) int { return u.K }

// Name implements Shape.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%d^%d)", u.K, u.P) }

// Weights returns the per-depth weight vector of the shape: Weights(s)[d] is
// the number of leaves of the subtree rooted at any node of depth d
// (paper §3.1, Figure 1). The returned slice has Depth()+1 entries; entry
// Depth() is always 1 (a leaf is its own single leaf, eq. 1).
//
// Weights validates the shape and panics if any branching factor is not
// positive, since a malformed shape would silently corrupt the number coding
// built on top of it.
func Weights(s Shape) []*big.Int {
	p := s.Depth()
	if p < 0 {
		panic(fmt.Sprintf("tree: shape %s has negative depth %d", s.Name(), p))
	}
	w := make([]*big.Int, p+1)
	w[p] = big.NewInt(1)
	for d := p - 1; d >= 0; d-- {
		k := s.Branching(d)
		if k <= 0 {
			panic(fmt.Sprintf("tree: shape %s has non-positive branching %d at depth %d", s.Name(), k, d))
		}
		w[d] = new(big.Int).Mul(w[d+1], big.NewInt(int64(k)))
	}
	return w
}

// LeafCount returns the total number of leaves of the tree, i.e. the weight
// of the root. It equals Weights(s)[0].
func LeafCount(s Shape) *big.Int {
	return Weights(s)[0]
}

// Validate checks that the rank path is a well-formed node address in the
// shape: every rank must satisfy 0 <= ranks[d] < Branching(d) and the path
// must not be longer than Depth(). It returns a descriptive error otherwise.
func Validate(s Shape, ranks []int) error {
	if len(ranks) > s.Depth() {
		return fmt.Errorf("tree: path of length %d exceeds depth %d of %s", len(ranks), s.Depth(), s.Name())
	}
	for d, r := range ranks {
		if k := s.Branching(d); r < 0 || r >= k {
			return fmt.Errorf("tree: rank %d at depth %d out of range [0,%d) in %s", r, d, k, s.Name())
		}
	}
	return nil
}
