package core

import (
	"repro/internal/bb"
	"repro/internal/interval"
)

// Explorer is the interval-driven depth-first Branch and Bound engine: the
// B&B process of the paper's farmer–worker architecture (§4). It explores
// exactly the leaf numbers of an assigned interval [A, B), maintains the
// local best solution, and can fold its remaining work back into an interval
// at any moment for communication and checkpointing (§3: "the interval is
// used for communications and check-pointing, while the list of active nodes
// is used for exploration").
//
// The walk runs in two modes (DESIGN.md §1). In boundary mode — while the
// current subtree straddles an end of [A, B) — each child's number and range
// are computed incrementally (number(child) = number(parent) + rank·weight,
// eq. 6) on reused interval.Num buffers and compared against the bounds. The
// moment a child's whole range is known to lie inside the interval, the walk
// switches to interior mode: every node of that subtree belongs to this
// explorer by construction, so the descent is a pure machine-integer cursor
// DFS — identical to the sequential engine in internal/bb — performing no
// node-number arithmetic and zero allocations until it ascends back to the depth where
// it entered. Node numbers below the entry depth are not maintained; they
// are reconstructed from the rank path on demand (Remaining, Restrict),
// which happens once per checkpoint rather than once per node. Since a DFS
// spends almost all of its time deep inside the interval, the per-node cost
// of the interval coding drops to that of a plain B&B.
//
// An Explorer is not safe for concurrent use; workers own one each and
// serialize external updates (interval restriction, incumbent sharing)
// through their message loop.
type Explorer struct {
	p  bb.Problem
	nb *Numbering

	lo, hi interval.Num // assigned interval [lo, hi); owned by the explorer

	// Depth-first walk state. cursor[d] is the rank of the next child to
	// try at depth d; the current path is cursor[d]-1 for d < depth.
	cursor []int
	branch []int // cached branching factor per depth (one slice load per node)
	depth  int
	num    []interval.Num // num[d] = number of the current path node at depth d
	path   []int          // rank path of the current position (path[d] valid for d < depth)

	// interior is the depth at which the walk entered a subtree fully
	// contained in [lo, hi), or -1 while the walk straddles a boundary.
	// While depth >= interior the hot loop does no number arithmetic, and
	// num[d] is only valid for d <= interior (deeper numbers are folded
	// from the rank path on demand).
	interior int

	childNum interval.Num // scratch: number of the child being examined
	childEnd interval.Num // scratch: end of the child's range
	nextNum  interval.Num // scratch: result buffer of nextNumber
	tmp      interval.Num // scratch: rank·weight terms in lazy materialization

	best  bb.Solution
	stats bb.Stats
	done  bool

	// OnImprove, when non-nil, is invoked synchronously each time the
	// local best solution improves — the hook behind the paper's rule (2)
	// of solution sharing: "immediately informs the coordinator of any
	// solution which improves its local solution" (§4.4). The callback
	// receives a private copy of the solution.
	OnImprove func(bb.Solution)
}

// NewExplorer builds an explorer for the problem over the given interval,
// primed with the initial incumbent cost initialUpper (bb.Infinity when no
// upper bound is known). The interval is clamped to the tree's root range.
func NewExplorer(p bb.Problem, nb *Numbering, iv interval.Interval, initialUpper int64) *Explorer {
	e := &Explorer{
		p:        p,
		nb:       nb,
		cursor:   make([]int, nb.Depth()+1),
		branch:   make([]int, nb.Depth()+1),
		num:      make([]interval.Num, nb.Depth()+1),
		path:     make([]int, nb.Depth()+1),
		interior: -1,
		best:     bb.Solution{Cost: initialUpper},
	}
	// branch has one extra entry (the leaf depth, zero) so the walk can
	// index it at any current depth without a bound check.
	copy(e.branch, bb.Branchings(nb.shape))
	e.lo, e.hi = clampAssigned(iv, nb)
	e.done = e.lo.Cmp(e.hi) >= 0
	p.Reset()
	return e
}

// clampAssigned restricts an assigned interval to the tree's root range.
// An empty interval — including the zero value, whose nil bounds would
// otherwise read as "no constraint" under the eq. 14 convention and clamp
// to the whole tree — assigns nothing: an idle explorer owns zero leaves,
// which is what an idle shard and the worker's dropped-interval path rely
// on.
func clampAssigned(iv interval.Interval, nb *Numbering) (lo, hi interval.Num) {
	if iv.IsEmpty() {
		return lo, hi
	}
	// A clone: the explorer owns its bounds and narrows them in place.
	clamped := iv.Intersect(nb.RootRange()).Clone()
	return clamped.Lo(), clamped.Hi()
}

// Numbering returns the numbering the explorer navigates with.
func (e *Explorer) Numbering() *Numbering { return e.nb }

// Done reports whether the assigned interval is fully explored.
func (e *Explorer) Done() bool { return e.done }

// Best returns a copy of the local best solution found or adopted so far.
func (e *Explorer) Best() bb.Solution { return e.best.Clone() }

// Stats returns a snapshot of the exploration counters.
func (e *Explorer) Stats() bb.Stats { return e.stats }

// AdoptBest lowers the incumbent cost to the given externally discovered
// value if it improves on the local one. The path is unknown to this
// process, so only the cost is kept — enough for the bounding operator.
// This is rule (3) of solution sharing: "regularly reads SOLUTION to update
// its local optimal solution" (§4.4).
func (e *Explorer) AdoptBest(cost int64) {
	if cost < e.best.Cost {
		e.best = bb.Solution{Cost: cost}
	}
}

// Restrict intersects the assigned interval with the coordinator's copy
// (eq. 14). Shrinking the end is the normal effect of load balancing (the
// holder "is informed to limit its exploration to [A,C) instead of [A,B)",
// §4.2); advancing the beginning happens when a duplicated interval was
// partly explored by another process. Both take effect lazily: the walk
// skips numbers that fall outside on its way. Restrict mutates the
// explorer's own bounds in place, so steady-state coordination rounds
// allocate nothing here.
func (e *Explorer) Restrict(iv interval.Interval) {
	changed := false
	if iv.Lo().Cmp(e.lo) > 0 {
		e.lo.Set(iv.Lo())
		changed = true
	}
	if iv.Hi().Cmp(e.hi) < 0 {
		e.hi.Set(iv.Hi())
		changed = true
	}
	if !changed {
		// The steady-state checkpoint reply: the coordinator's copy
		// equals ours, nothing to re-check — in particular the interior
		// fast loop keeps running.
		return
	}
	if e.lo.Cmp(e.hi) >= 0 {
		e.done = true
	}
	// A subtree that was interior to the old interval may straddle the
	// new, smaller one: materialize the lazily skipped numbers along the
	// current path and fall back to boundary mode, which re-checks every
	// child against the updated bounds as the walk proceeds.
	e.materializeNums()
}

// materializeNums computes num[d] for the path depths below the interior
// entry point (which the fast loop deliberately leaves stale) and leaves
// interior mode. O(depth) number arithmetic; called on the rare external events,
// never per node.
func (e *Explorer) materializeNums() {
	if e.interior < 0 {
		return
	}
	for d := e.interior; d < e.depth; d++ {
		// number(child) = number(parent) + rank·weight(child) (eq. 6).
		e.tmp.Mul64(e.nb.weights[d+1], int64(e.path[d]))
		e.num[d+1].Add(e.num[d], e.tmp)
	}
	e.interior = -1
}

// nextNumber returns the number of the next node the walk will visit (into
// the reused nextNum buffer), or false if the walk is exhausted. The next node
// is at the deepest level that still has untried children (remaining
// children of deeper levels come first in depth-first order and carry the
// smallest numbers).
func (e *Explorer) nextNumber() (*interval.Num, bool) {
	if e.done {
		return nil, false
	}
	for d := e.depth; d >= 0; d-- {
		if e.cursor[d] >= e.branch[d] {
			continue
		}
		n := &e.nextNum
		// Fold the number of the current path node at depth d. num[] is
		// authoritative down to the interior entry depth; below it the
		// fast loop maintains only the rank path, so the remaining terms
		// of eq. 6 are summed here, once per checkpoint.
		base := d
		if e.interior >= 0 && base > e.interior {
			base = e.interior
		}
		n.Set(e.num[base])
		for k := base; k < d; k++ {
			n.Add(*n, *e.tmp.Mul64(e.nb.weights[k+1], int64(e.path[k])))
		}
		n.Add(*n, *e.tmp.Mul64(e.nb.weights[d+1], int64(e.cursor[d])))
		return n, true
	}
	return nil, false
}

// Remaining folds the not-yet-explored part of the assigned interval
// (eq. 10 applied to the live frontier). It is what the worker sends to the
// coordinator on every checkpoint/update (§4.1). The result is empty when
// exploration is finished.
func (e *Explorer) Remaining() interval.Interval {
	n, ok := e.nextNumber()
	if !ok {
		return interval.Of(e.hi, e.hi).Clone()
	}
	if n.Cmp(e.lo) < 0 {
		n.Set(e.lo)
	}
	return interval.Of(*n, e.hi).Clone()
}

// Step explores up to budget nodes and returns how many were actually
// visited and whether the interval is now fully explored. A zero or negative
// budget visits nothing. Step is the single entry point used by both the
// goroutine runtime and the discrete-event grid simulator, so simulated
// statistics come from real exploration.
func (e *Explorer) Step(budget int64) (explored int64, done bool) {
	if e.done {
		return 0, true
	}
	p := e.p
	depthMax := e.nb.Depth()
	for explored < budget {
		if e.interior >= 0 {
			// Interior mode: the subtree rooted at depth e.interior lies
			// entirely inside [lo, hi), so ownership is settled for every
			// node below — pure int-cursor DFS, no node numbers in sight.
			cutoff := e.best.Cost
			for explored < budget {
				d := e.depth
				if e.cursor[d] >= e.branch[d] {
					// Level exhausted: backtrack.
					e.cursor[d] = 0
					e.depth--
					p.Ascend()
					if e.depth < e.interior {
						e.interior = -1
						break
					}
					continue
				}
				r := e.cursor[d]
				e.cursor[d]++
				explored++
				e.stats.Explored++
				e.path[d] = r
				if d+1 == depthMax {
					p.Descend(r)
					e.stats.Leaves++
					if c := p.Cost(); c < cutoff {
						e.improve(c, d+1)
						cutoff = e.best.Cost
					}
					p.Ascend()
					continue
				}
				if b := p.BoundChild(r, cutoff); b >= cutoff {
					// The elimination operator (see boundary mode below
					// for why pruning stays valid across processes).
					e.stats.Pruned++
					continue
				}
				p.Descend(r)
				e.depth++
			}
			continue
		}
		// Boundary mode: the walk straddles an end of [lo, hi); each
		// child's range is computed and compared before descending.
		d := e.depth
		if e.cursor[d] >= e.branch[d] {
			// Level exhausted: backtrack.
			e.cursor[d] = 0
			if d == 0 {
				e.done = true
				break
			}
			e.depth--
			p.Ascend()
			continue
		}
		r := e.cursor[d]
		e.cursor[d]++
		childDepth := d + 1
		// number(child) = number(parent) + rank·weight(child) (eq. 6).
		e.childNum.Mul64(e.nb.weights[childDepth], int64(r))
		e.childNum.Add(e.childNum, e.num[d])
		if e.childNum.Cmp(e.hi) >= 0 {
			// Depth-first order visits numbers in ascending order:
			// once a child starts at or past hi, every remaining
			// node does too. The whole walk is finished.
			e.done = true
			break
		}
		e.childEnd.Add(e.childNum, e.nb.weights[childDepth])
		if e.childEnd.Cmp(e.lo) <= 0 {
			// Entirely before lo: this subtree belongs to nobody
			// here (it was either already explored under a
			// duplicated interval or assigned elsewhere). Skip
			// without descending and without counting.
			continue
		}
		// A node is charged to the process that owns its leftmost leaf
		// (a node's number IS that leaf). When childNum < lo the ground
		// before lo — including this node — was already charged to
		// whoever explored it; re-descending through it to reach lo is
		// the O(depth) unfold of eq. 8–9, not new exploration, so it is
		// neither counted nor billed against the step budget. This keeps
		// node accounting partition-invariant: summed over any partition
		// of the tree's range, Explored equals the sequential count.
		counted := e.childNum.Cmp(e.lo) >= 0
		if counted {
			explored++
			e.stats.Explored++
		}
		e.path[d] = r
		if childDepth == depthMax {
			// A leaf's range is one unit wide, so it can never straddle
			// lo: counted is always true here.
			p.Descend(r)
			e.stats.Leaves++
			if c := p.Cost(); c < e.best.Cost {
				e.improve(c, childDepth)
			}
			p.Ascend()
			continue
		}
		if b := p.BoundChild(r, e.best.Cost); b >= e.best.Cost {
			// The elimination operator. Pruning is justified by the
			// cost of a feasible solution, so it stays valid for any
			// process that may re-explore this region later; skipped
			// numbers inside the folded interval are at worst
			// redundant work after a failure, never lost work.
			if counted {
				e.stats.Pruned++
			}
			continue
		}
		p.Descend(r)
		e.num[childDepth].Set(e.childNum)
		e.depth++
		if e.childNum.Cmp(e.lo) >= 0 && e.childEnd.Cmp(e.hi) <= 0 {
			// [childNum, childEnd) ⊆ [lo, hi): everything below is
			// ours. Drop into the boundary-free fast loop until the
			// walk resurfaces at this depth.
			e.interior = childDepth
		}
	}
	if e.done {
		// Rewind the problem state so the explorer can be reused with
		// a fresh interval via Reassign.
		e.interior = -1
		for e.depth > 0 {
			e.depth--
			p.Ascend()
		}
		for d := range e.cursor {
			e.cursor[d] = 0
		}
	}
	return explored, e.done
}

// improve records a new incumbent found at the current leaf and fires the
// sharing hook.
func (e *Explorer) improve(cost int64, leafDepth int) {
	e.best.Cost = cost
	e.best.Path = append(e.best.Path[:0], e.path[:leafDepth]...)
	e.stats.Improved++
	if e.OnImprove != nil {
		e.OnImprove(e.best.Clone())
	}
}

// Reassign gives the explorer a new interval to explore, keeping the
// incumbent and cumulative statistics. It is how a worker starts its next
// work unit after finishing one (§4.2: "a B&B process requests an interval
// ... when it finishes the exploration of its interval").
func (e *Explorer) Reassign(iv interval.Interval) {
	e.lo, e.hi = clampAssigned(iv, e.nb)
	e.done = e.lo.Cmp(e.hi) >= 0
	e.depth = 0
	e.interior = -1
	for d := range e.cursor {
		e.cursor[d] = 0
	}
	for d := range e.num {
		e.num[d].Set(interval.Num{})
	}
	e.p.Reset()
}

// Run explores the assigned interval to completion in stepBudget-sized
// slices and returns the best solution and the statistics. It is a
// convenience for single-worker uses (examples, tests, the sequential
// comparison in benchmarks).
func (e *Explorer) Run(stepBudget int64) (bb.Solution, bb.Stats) {
	if stepBudget <= 0 {
		stepBudget = 1 << 16
	}
	for {
		if _, done := e.Step(stepBudget); done {
			return e.Best(), e.Stats()
		}
	}
}
