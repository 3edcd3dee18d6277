// Package bb defines the problem abstraction shared by every Branch and
// Bound engine in this repository and provides the classical sequential
// depth-first B&B solver, which serves both as the correctness oracle for
// the grid engine and as the single-processor baseline of the paper's
// evaluation.
//
// Problems are expressed as backtracking state machines over a regular tree
// (see internal/tree): the engine drives Descend/Ascend calls along a
// root-to-leaf path and asks for bounds and leaf costs; the problem never
// allocates per node, which keeps the exploration hot loop free of garbage.
// All problems are minimization problems; maximization problems negate
// their objective (see internal/knapsack).
package bb

import (
	"math"

	"repro/internal/tree"
)

// Infinity is the lower-bound sentinel meaning "this subtree contains no
// feasible solution"; any node bounded at Infinity is pruned whatever the
// incumbent is.
const Infinity int64 = math.MaxInt64

// Problem is a combinatorial minimization problem explored over a regular
// tree. Implementations maintain the state of the current root-to-leaf path
// internally and mutate it in place as the engine descends and ascends.
//
// The branching operator is expressed through Descend(rank): rank r selects
// the r-th child in the problem's canonical child order, which must be
// deterministic and identical in every process — the node-number coding of
// the paper (§3.2) is a shared coordinate system and only works if every
// worker agrees on which child has which rank.
//
// Implementations must generate the full regular tree: children that are
// infeasible in the problem domain still exist in the shape and must be
// reported as hopeless through Bound() returning Infinity, never by
// shrinking the branching factor, which would desynchronize the numbering.
type Problem interface {
	// Shape returns the regular tree explored by the problem. It must be
	// constant for the lifetime of the value.
	Shape() tree.Shape
	// Reset returns the path to the root. Engines call it before any
	// exploration and implementations must support repeated calls.
	Reset()
	// Descend extends the current path with the child of the given rank
	// (0-based, in canonical order). The engine guarantees
	// 0 <= rank < Shape().Branching(depth) where depth is the current
	// path depth.
	Descend(rank int)
	// Ascend removes the deepest element of the current path. The engine
	// never calls it at the root.
	Ascend()
	// Bound returns a lower bound on the cost of every leaf below the
	// current path node. Tighter is better; Infinity prunes
	// unconditionally. Bound is never called on a leaf.
	//
	// The cutoff is the engine's pruning threshold (the incumbent cost):
	// the engine eliminates the subtree exactly when the returned value is
	// >= cutoff. Implementations may stop computing and return early as
	// soon as a partial evaluation already proves the bound >= cutoff; the
	// returned value must itself remain an admissible lower bound, so
	//
	//	Bound(cutoff) >= cutoff  ⟺  the full bound >= cutoff
	//
	// and with an unreachable cutoff (bb.Infinity) the result is the full,
	// exact bound. This cutoff-aware contract is what keeps deep, hopeless
	// nodes cheap: most are eliminated by a fraction of the full bound
	// computation (see DESIGN.md §2).
	Bound(cutoff int64) int64
	// BoundChild returns, without moving the path, what
	//
	//	Descend(rank); b := Bound(cutoff); Ascend()
	//
	// would: the bound of the rank-th child under the same cutoff contract
	// (>= cutoff agrees with the full bound, exact when below). It is how
	// the engines bound — most children are eliminated the moment they are
	// bounded, and one eliminated here costs no Descend and no Ascend — and
	// it is never called for a child that is a leaf. An implementation with
	// nothing to gain delegates to BoundByDescent (gridbb.BoundByDescent
	// outside this module).
	BoundChild(rank int, cutoff int64) int64
	// Cost returns the objective value of the current leaf. It is only
	// called when the path has reached depth Shape().Depth().
	Cost() int64
}

// BoundByDescent is BoundChild by its definition, for problems whose bound
// needs the child's state in place.
func BoundByDescent(p Problem, rank int, cutoff int64) int64 {
	p.Descend(rank)
	b := p.Bound(cutoff)
	p.Ascend()
	return b
}

// Decoder is implemented by problems that can translate a rank path into a
// domain-level solution description (a job permutation, a tour, an item
// subset...). It is optional; engines report rank paths either way.
type Decoder interface {
	// DecodePath renders the solution identified by the rank path.
	DecodePath(ranks []int) string
}

// Solution is an incumbent: the best leaf found so far.
type Solution struct {
	// Cost is the objective value. Infinity means "no solution found".
	Cost int64
	// Path is the rank path from the root to the leaf; its length is the
	// tree depth. Nil when Cost is Infinity.
	Path []int
}

// Valid reports whether the solution denotes an actual leaf.
func (s Solution) Valid() bool { return s.Cost < Infinity && s.Path != nil }

// Clone returns a deep copy of the solution.
func (s Solution) Clone() Solution {
	c := Solution{Cost: s.Cost}
	if s.Path != nil {
		c.Path = append([]int(nil), s.Path...)
	}
	return c
}

// Stats aggregates exploration counters. "Explored" counts every node
// visited (branched or evaluated), matching the paper's "explored nodes"
// statistic in Table 2; "Pruned" counts subtrees eliminated by bounding.
type Stats struct {
	Explored int64 // nodes visited (internal nodes decomposed + leaves evaluated)
	Pruned   int64 // subtrees cut by the bounding operator
	Leaves   int64 // leaves evaluated
	Improved int64 // times the incumbent improved
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Explored += other.Explored
	s.Pruned += other.Pruned
	s.Leaves += other.Leaves
	s.Improved += other.Improved
}

// Solve runs a sequential depth-first Branch and Bound to completion and
// returns the optimal solution (or an invalid one if the tree has no leaf,
// which only happens for depth-0 shapes). initialUpper primes the incumbent
// cost — the paper initializes runs on Ta056 with the best known makespan
// (3681, then 3680, §5.3); pass Infinity when no upper bound is known.
// Pruning uses "bound >= incumbent", so Solve proves optimality of the
// returned cost even when initialUpper equals the optimum: it will simply
// find no improving leaf, and the caller learns the initial bound was
// optimal if the returned solution is invalid.
func Solve(p Problem, initialUpper int64) (Solution, Stats) {
	eng := engine{p: p, best: Solution{Cost: initialUpper}}
	eng.run()
	return eng.best, eng.stats
}

// engine is the plain DFS baseline: no interval coding, a single path walk.
type engine struct {
	p     Problem
	best  Solution
	stats Stats
}

func (e *engine) run() {
	p := e.p
	shape := p.Shape()
	depthMax := shape.Depth()
	p.Reset()
	if depthMax == 0 {
		return
	}
	// cursor[d] is the rank of the next child to try at depth d; the
	// current path is defined by cursor[d]-1 for d < depth. Branching
	// factors are cached up front: one slice load per node instead of an
	// interface call.
	cursor := make([]int, depthMax)
	path := make([]int, depthMax)
	branch := Branchings(shape)
	depth := 0
	for {
		if cursor[depth] >= branch[depth] {
			// Level exhausted: backtrack.
			cursor[depth] = 0
			if depth == 0 {
				return
			}
			depth--
			p.Ascend()
			continue
		}
		r := cursor[depth]
		cursor[depth]++
		path[depth] = r
		e.stats.Explored++
		if depth+1 == depthMax {
			// Leaf.
			p.Descend(r)
			e.stats.Leaves++
			if c := p.Cost(); c < e.best.Cost {
				e.best.Cost = c
				e.best.Path = append(e.best.Path[:0], path...)
				e.stats.Improved++
			}
			p.Ascend()
			continue
		}
		if b := p.BoundChild(r, e.best.Cost); b >= e.best.Cost {
			e.stats.Pruned++
			continue
		}
		p.Descend(r)
		depth++
	}
}

// Branchings caches the branching factor of every internal depth in a slice,
// trading one interface dispatch per visited node for a slice load in the
// engines' hot loops.
func Branchings(s tree.Shape) []int {
	b := make([]int, s.Depth())
	for d := range b {
		b[d] = s.Branching(d)
	}
	return b
}

// Enumerate visits every leaf of the problem tree without any bounding and
// reports the best one. It is exponential and exists solely as a brute-force
// oracle for tests on tiny instances.
func Enumerate(p Problem) (Solution, Stats) {
	shape := p.Shape()
	depthMax := shape.Depth()
	p.Reset()
	best := Solution{Cost: Infinity}
	var stats Stats
	if depthMax == 0 {
		return best, stats
	}
	path := make([]int, 0, depthMax)
	var walk func(depth int)
	walk = func(depth int) {
		if depth == depthMax {
			stats.Leaves++
			if c := p.Cost(); c < best.Cost {
				best.Cost = c
				best.Path = append([]int(nil), path...)
				stats.Improved++
			}
			return
		}
		for r := 0; r < shape.Branching(depth); r++ {
			p.Descend(r)
			stats.Explored++
			path = append(path, r)
			walk(depth + 1)
			path = path[:len(path)-1]
			p.Ascend()
		}
	}
	walk(0)
	return best, stats
}
