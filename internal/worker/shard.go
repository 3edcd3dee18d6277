package worker

import (
	"math/big"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/interval"
)

// shardEngine is the intra-worker multicore engine in its deterministic,
// step-driven form: P shard explorers over a tiling of the worker's
// assigned interval, advanced round-robin in fixed quanta by the calling
// goroutine. Work balances internally with the same donation algebra the
// p2p ring steals with — an idle shard halves the richest sibling's
// remainder (core.Donate) — and improvements propagate through a shared
// incumbent adopted at the start of every quantum.
//
// To the protocol the engine is indistinguishable from one explorer: its
// fold (Remaining) is the covering interval [min shard frontier, B) of the
// union of shard remainders, which shrinks monotonically because shards
// only ever consume or exchange work inside it — so the farmer's
// intersection updates, the checkpoint format and the conformance
// invariants all carry over unchanged (DESIGN.md §7). Being entirely
// caller-driven, the engine is deterministic: the simulator and the chaos
// harness replay multicore workers byte for byte. The goroutine form of the
// same engine lives in parallel.go.
type shardEngine struct {
	nb     *core.Numbering
	shards []*core.Explorer

	// lo, hi are the bounds of the registered interval: the assignment
	// clamped to the root range, narrowed by every Restrict since. hi is
	// the fold's end — a DFS remainder always ends at the interval end,
	// and pinning the multicore fold there too keeps the farmer from
	// mistaking a finished top shard for a stale copy.
	lo, hi *big.Int

	// quantum is the per-shard slice of the round-robin; turn persists
	// across Step calls so interleaving depends only on the call sequence.
	quantum int64
	turn    int

	// best is the engine-wide incumbent: the best of every shard's
	// discoveries and every externally adopted cost. Shards adopt its
	// cost before each quantum.
	best bb.Solution

	// onImprove fires on engine-wide improvements (wired to the
	// session's immediate solution push).
	onImprove func(bb.Solution)
}

// newShardEngine builds an idle engine with one shard per problem; Reassign
// deals it an interval.
func newShardEngine(probs []bb.Problem, stepSize int64, onImprove func(bb.Solution)) *shardEngine {
	g := &shardEngine{
		nb:        core.NewNumbering(probs[0].Shape()),
		quantum:   max(stepSize/int64(len(probs)), 64),
		best:      bb.Solution{Cost: bb.Infinity},
		lo:        new(big.Int),
		hi:        new(big.Int),
		onImprove: onImprove,
	}
	for _, p := range probs {
		ex := core.NewExplorer(p, g.nb, interval.Interval{}, bb.Infinity)
		ex.OnImprove = g.improve
		g.shards = append(g.shards, ex)
	}
	return g
}

// tile clamps iv to the root range, records the registered bounds and
// returns one contiguous piece per shard. An empty assignment — including
// the zero value, which Intersect maps to [0,0) — tiles into all-empty
// pieces, the same "idle explorer owns zero leaves" convention as
// clampAssigned in internal/core.
func (g *shardEngine) tile(iv interval.Interval) []interval.Interval {
	clamped := iv.Intersect(g.nb.RootRange())
	clamped.AInto(g.lo)
	clamped.BInto(g.hi)
	return interval.SplitEven(clamped, len(g.shards))
}

// improve lifts a shard's local improvement to the engine incumbent. A
// shard adopts the engine cost before each of its quanta and the engine is
// single-threaded, so a shard-local improvement is always an engine-wide
// one; the guard is belt and braces.
func (g *shardEngine) improve(sol bb.Solution) {
	if sol.Cost >= g.best.Cost {
		return
	}
	g.best = sol
	if g.onImprove != nil {
		g.onImprove(sol.Clone())
	}
}

// Step explores up to budget nodes across the shards, round-robin in
// quantum-sized slices, stealing for idle shards between slices.
func (g *shardEngine) Step(budget int64) (explored int64, done bool) {
	for explored < budget {
		idle := 0
		for range g.shards {
			ex := g.shards[g.turn]
			g.turn = (g.turn + 1) % len(g.shards)
			if ex.Done() && !g.stealFor(ex) {
				idle++
				continue
			}
			ex.AdoptBest(g.best.Cost)
			slice := g.quantum
			if left := budget - explored; left < slice {
				slice = left
			}
			n, _ := ex.Step(slice)
			explored += n
			if explored >= budget {
				break
			}
		}
		if idle == len(g.shards) {
			return explored, true
		}
	}
	return explored, g.Done()
}

// stealFor rebalances work onto an exhausted shard: the richest sibling
// (largest remainder, lowest index on ties — determinism) donates half via
// the shared halving operator. It reports whether the thief got anything.
func (g *shardEngine) stealFor(thief *core.Explorer) bool {
	lens := make([]*big.Int, len(g.shards))
	for i, ex := range g.shards {
		if ex != thief && !ex.Done() {
			lens[i] = ex.Remaining().Len()
		}
	}
	idx := richest(lens)
	if idx < 0 {
		return false
	}
	give := core.Donate(g.shards[idx])
	if give.IsEmpty() {
		return false
	}
	thief.Reassign(give)
	thief.AdoptBest(g.best.Cost)
	return true
}

// foldCover is the multicore fold both engine forms share: the covering
// interval [min remainder frontier, hi) of a set of shard remainders, or
// the empty [hi, hi) when nothing remains. Exactly the shape of a single
// explorer's remainder — a DFS remainder always ends at the interval end —
// so the checkpoint a sharded worker re-registers is indistinguishable
// from the paper's. The already-explored holes above the minimum frontier
// stay inside the fold; they are given up only as the frontier passes
// them, which keeps the fold monotone and the redundancy accounting
// conservative.
func foldCover(rems []interval.Interval, hi *big.Int) interval.Interval {
	var lo *big.Int
	for _, rem := range rems {
		if rem.IsEmpty() {
			continue
		}
		a := rem.A()
		if lo == nil || a.Cmp(lo) < 0 {
			lo = a
		}
	}
	if lo == nil {
		return interval.New(hi, hi)
	}
	return interval.New(lo, hi)
}

// richest picks the steal victim both engine forms share: the index of the
// largest length that is worth splitting (at least 2 numbers; nil marks a
// non-candidate), lowest index on ties, -1 when nobody qualifies.
func richest(lens []*big.Int) int {
	idx := -1
	bestLen := big.NewInt(1)
	for i, l := range lens {
		if l != nil && l.Cmp(bestLen) > 0 {
			idx, bestLen = i, l
		}
	}
	return idx
}

// Remaining folds the union of the shard remainders into its covering
// interval (see foldCover).
func (g *shardEngine) Remaining() interval.Interval {
	rems := make([]interval.Interval, 0, len(g.shards))
	for _, ex := range g.shards {
		if !ex.Done() {
			rems = append(rems, ex.Remaining())
		}
	}
	return foldCover(rems, g.hi)
}

// Restrict narrows the registered interval and every shard to the
// coordinator's copy (eq. 14 applied shard-wise; each shard intersects its
// own tile with the reply).
func (g *shardEngine) Restrict(iv interval.Interval) {
	if iv.IsEmpty() {
		g.Reassign(interval.Interval{})
		return
	}
	if iv.CmpA(g.lo) > 0 {
		iv.AInto(g.lo)
	}
	if iv.CmpB(g.hi) < 0 {
		iv.BInto(g.hi)
	}
	for _, ex := range g.shards {
		ex.Restrict(iv)
	}
}

// Reassign gives the engine a new interval: re-tile, one piece per shard.
func (g *shardEngine) Reassign(iv interval.Interval) {
	parts := g.tile(iv)
	for i, ex := range g.shards {
		ex.Reassign(parts[i])
	}
	g.turn = 0
}

// AdoptBest lowers the engine incumbent to an externally discovered cost;
// shards pick it up at their next quantum.
func (g *shardEngine) AdoptBest(cost int64) {
	if cost < g.best.Cost {
		g.best = bb.Solution{Cost: cost}
	}
}

// Best returns a copy of the engine-wide incumbent.
func (g *shardEngine) Best() bb.Solution { return g.best.Clone() }

// Stats sums the shard counters.
func (g *shardEngine) Stats() bb.Stats {
	var total bb.Stats
	for _, ex := range g.shards {
		total.Add(ex.Stats())
	}
	return total
}

// Done reports whether every shard exhausted its work.
func (g *shardEngine) Done() bool {
	for _, ex := range g.shards {
		if !ex.Done() {
			return false
		}
	}
	return true
}

// remainders returns the current shard remainders (tests use it to check
// the tiling invariant: pairwise disjoint, inside the registered interval,
// with the fold's frontier equal to their minimum).
func (g *shardEngine) remainders() []interval.Interval {
	out := make([]interval.Interval, 0, len(g.shards))
	for _, ex := range g.shards {
		if rem := ex.Remaining(); !rem.IsEmpty() {
			out = append(out, rem)
		}
	}
	return out
}

var _ engine = (*shardEngine)(nil)
