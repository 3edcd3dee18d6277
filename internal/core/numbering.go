// Package core implements the paper's primary contribution
// (Mezmaz, Melab, Talbi; INRIA RR-5945, §3): a coding of Branch and Bound
// work units as integer intervals. Every node of a regular search tree gets
// a number (eq. 6); the numbers below a node form its range (eq. 7); a
// depth-first active-node list folds into a single interval (eq. 10) and an
// interval unfolds back into the unique minimal active-node list covering it
// (eqs. 11–13). The Explorer type is the interval-driven depth-first B&B
// engine built on this coding.
package core

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/tree"
)

// Numbering assigns numbers and ranges to the nodes of a regular tree. It
// precomputes the per-depth weight vector once (paper §3.1: "At the
// beginning of the B&B algorithm, a vector which gives the weight associated
// with each depth is calculated").
type Numbering struct {
	shape   tree.Shape
	weights []interval.Num
}

// NewNumbering builds the numbering of the given shape.
func NewNumbering(s tree.Shape) *Numbering {
	ws := tree.Weights(s)
	nb := &Numbering{shape: s, weights: make([]interval.Num, len(ws))}
	for d, w := range ws {
		nb.weights[d] = interval.NumBig(w)
	}
	return nb
}

// Shape returns the tree shape the numbering is defined over.
func (nb *Numbering) Shape() tree.Shape { return nb.shape }

// Depth returns the leaf depth P of the underlying shape.
func (nb *Numbering) Depth() int { return nb.shape.Depth() }

// Weight returns the weight of any node at the given depth: the number of
// leaves of the subtree rooted there (eq. 1, simplified per-depth as in
// eqs. 2–3). The returned value is shared; callers must not write it.
func (nb *Numbering) Weight(depth int) interval.Num {
	if depth < 0 || depth >= len(nb.weights) {
		panic(fmt.Sprintf("core: depth %d out of range [0,%d]", depth, len(nb.weights)-1))
	}
	return nb.weights[depth]
}

// LeafCount returns the weight of the root: the total number of leaves.
func (nb *Numbering) LeafCount() interval.Num { return nb.weights[0] }

// Number implements eq. (6): the number of the node identified by the rank
// path is the sum over the path of rank(i)·weight(i). The root (empty path)
// has number 0. Number panics on a malformed path, because a bad path is a
// programming error that would silently corrupt work accounting.
func (nb *Numbering) Number(ranks []int) interval.Num {
	if err := tree.Validate(nb.shape, ranks); err != nil {
		panic(err)
	}
	var n, term interval.Num
	for d, r := range ranks {
		// The node chosen at path position d lives at depth d+1.
		n.Add(n, *term.Mul64(nb.weights[d+1], int64(r)))
	}
	return n
}

// Range implements eq. (7): the interval of leaf numbers below the node,
// [number(n), number(n)+weight(n)).
func (nb *Numbering) Range(ranks []int) interval.Interval {
	n := nb.Number(ranks)
	var end interval.Num
	end.Add(n, nb.weights[len(ranks)])
	return interval.Of(n, end)
}

// RootRange returns the range of the root node, [0, leafCount): the initial
// content of the coordinator's INTERVALS set (paper §4.3).
func (nb *Numbering) RootRange() interval.Interval {
	return interval.Of(interval.Num{}, nb.weights[0])
}

// PathOfNumber returns the rank path of the leaf with the given number, the
// inverse of Number restricted to leaves. It errors if the number is outside
// [0, leafCount). It is the building block used by tests to check that the
// numbering is a bijection on leaves.
func (nb *Numbering) PathOfNumber(n interval.Num) ([]int, error) {
	if n.Sign() < 0 || n.Cmp(nb.weights[0]) >= 0 {
		return nil, fmt.Errorf("core: number %s outside [0,%s)", n, nb.weights[0])
	}
	p := nb.shape.Depth()
	ranks := make([]int, p)
	var rest interval.Num
	rest.Set(n)
	for d := 0; d < p; d++ {
		// rank at path position d = rest / weight(depth d+1), by
		// subtraction: a rank is below the branching factor.
		w := nb.weights[d+1]
		for rest.Cmp(w) >= 0 {
			rest.Sub(rest, w)
			ranks[d]++
		}
	}
	return ranks, nil
}
