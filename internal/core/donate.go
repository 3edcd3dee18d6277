package core

import "repro/internal/interval"

// Donate carves off the right half of the explorer's remaining interval and
// returns it, restricting the explorer to the left half it is already
// walking. It returns the empty interval — and leaves the explorer
// untouched — when there is nothing worth giving (the explorer is done or
// its remainder holds fewer than two numbers).
//
// This is the work-movement primitive of the one runtime that rebalances
// between live explorers, internal/worker's shard engine: an idle shard —
// of a multicore worker, or one of gridbb.SolveP2P's peers — takes a
// donation from the richest sibling. Callers own the
// synchronization: an Explorer is single-threaded, so concurrent runtimes
// must hold the victim's lock across the call — the fold (Remaining), the
// halving and the Restrict must be one atomic step or the donated and kept
// parts could both be explored.
func Donate(e *Explorer) interval.Interval {
	if e.Done() {
		return interval.Interval{}
	}
	rem := e.Remaining()
	keep, give := interval.Halve(rem)
	if give.IsEmpty() {
		return interval.Interval{}
	}
	e.Restrict(keep)
	return give
}
