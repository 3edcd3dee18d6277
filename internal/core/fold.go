package core

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/tree"
)

// NodeRef identifies a tree node by its rank path from the root. The root is
// the empty path. NodeRef is the unit of the unfolded representation: a list
// of active nodes (paper §3, "the list of active nodes is used for
// exploration").
type NodeRef struct {
	// Ranks is the rank of each node of the path among its siblings,
	// root child first (paper §3.2: "the rank of the first generated node
	// is 0, the rank of the second generated node is 1, and so on").
	Ranks []int
}

// Depth returns the node's depth, i.e. the length of its path.
func (n NodeRef) Depth() int { return len(n.Ranks) }

// Clone returns a deep copy of the reference.
func (n NodeRef) Clone() NodeRef {
	return NodeRef{Ranks: append([]int(nil), n.Ranks...)}
}

// String renders the rank path, e.g. "<2.0.1>"; the root is "<>".
func (n NodeRef) String() string {
	s := "<"
	for i, r := range n.Ranks {
		if i > 0 {
			s += "."
		}
		s += fmt.Sprint(r)
	}
	return s + ">"
}

// Fold implements the fold operator (eq. 10): given a depth-first active
// list N1..Nk ordered by exploration order (hence by ascending number,
// eq. 9), the interval of all numbers explorable from it is
// [number(N1), number(Nk)+weight(Nk)). Only the first and the last node are
// inspected — that is the whole point of the coding: the interval is O(1) in
// the size of the list.
//
// Fold errors on an empty list (the fold of no work is the empty interval,
// but callers should represent that state explicitly) and on malformed
// paths.
func Fold(nb *Numbering, active []NodeRef) (interval.Interval, error) {
	if len(active) == 0 {
		return interval.Interval{}, fmt.Errorf("core: fold of empty active list")
	}
	first, last := active[0], active[len(active)-1]
	if err := tree.Validate(nb.shape, first.Ranks); err != nil {
		return interval.Interval{}, err
	}
	if err := tree.Validate(nb.shape, last.Ranks); err != nil {
		return interval.Interval{}, err
	}
	a := nb.Number(first.Ranks)
	b := nb.Number(last.Ranks)
	b.Add(b, nb.weights[len(last.Ranks)])
	return interval.Of(a, b), nil
}

// FoldStrict is Fold plus a verification of the depth-first contiguity
// condition (eq. 9): the range of each node must end exactly where the range
// of its successor begins. A violated condition means the list is not a
// depth-first frontier and its fold would claim numbers the list does not
// cover; FoldStrict reports which pair is at fault.
func FoldStrict(nb *Numbering, active []NodeRef) (interval.Interval, error) {
	iv, err := Fold(nb, active)
	if err != nil {
		return iv, err
	}
	var prevEnd interval.Num
	for i, n := range active {
		if err := tree.Validate(nb.shape, n.Ranks); err != nil {
			return interval.Interval{}, err
		}
		num := nb.Number(n.Ranks)
		if i > 0 && prevEnd.Cmp(num) != 0 {
			return interval.Interval{}, fmt.Errorf(
				"core: active list not contiguous at position %d: previous range ends at %s, %v begins at %s",
				i, prevEnd, n, num)
		}
		prevEnd.Add(num, nb.weights[len(n.Ranks)])
	}
	return iv, nil
}

// Unfold implements the unfold operator (eqs. 11–13): it returns the unique
// minimal list of nodes whose ranges tile [A, B) exactly, in ascending
// number order. A node is emitted when its range is included in the interval
// while its father's is not (eq. 11); nodes whose range is disjoint from the
// interval are eliminated; nodes whose range straddles a boundary are
// decomposed (eq. 12). At most one node per boundary per depth is
// decomposed, so the cost is bounded by 2·P·K range comparisons for a tree
// of depth P and branching K — "this guarantees the low cost of the unfold
// operator" (§3.5).
//
// Unfold of an empty or out-of-tree interval returns an empty list.
func Unfold(nb *Numbering, iv interval.Interval) []NodeRef {
	target := iv.Intersect(nb.RootRange())
	if target.IsEmpty() {
		return nil
	}
	var out []NodeRef
	ranks := make([]int, 0, nb.Depth())
	var walk func(num interval.Num, depth int)
	var end interval.Num
	a, b := target.Lo(), target.Hi()
	walk = func(num interval.Num, depth int) {
		w := nb.weights[depth]
		end.Add(num, w)
		// Elimination rule (eq. 12), case "range and [A,B) disjoint".
		if end.Cmp(a) <= 0 || num.Cmp(b) >= 0 {
			return
		}
		// Elimination rule, case "range ⊆ [A,B)": collect (eq. 13).
		if num.Cmp(a) >= 0 && end.Cmp(b) <= 0 {
			out = append(out, NodeRef{Ranks: append([]int(nil), ranks...)})
			return
		}
		// Partial overlap: decompose (branching operator of the
		// interval-only B&B of §3.5).
		if depth == nb.Depth() {
			// A leaf range is a single number and can never
			// partially overlap a non-empty interval.
			panic("core: unfold reached a straddling leaf; numbering invariant broken")
		}
		k := nb.shape.Branching(depth)
		var childNum interval.Num
		childNum.Set(num)
		childW := nb.weights[depth+1]
		for r := 0; r < k; r++ {
			ranks = append(ranks, r)
			walk(childNum, depth+1)
			ranks = ranks[:len(ranks)-1]
			childNum.Add(childNum, childW)
			// Stop early once children start past the interval;
			// all later siblings are disjoint too.
			if childNum.Cmp(b) >= 0 {
				break
			}
		}
	}
	walk(interval.Num{}, 0)
	return out
}
