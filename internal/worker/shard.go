package worker

import (
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/interval"
)

// shard is one shard explorer plus the lock that serializes every touch of
// it: its scheduler's Step slices, the protocol goroutine's folds and
// restricts, and siblings' donations.
type shard struct {
	mu sync.Mutex
	ex *core.Explorer
}

// shardEngine is the intra-worker multicore engine: P shard explorers over
// a tiling of the worker's assigned interval. Work balances internally by
// donation — a dry shard halves the richest sibling's remainder
// (core.Donate) — and improvements go to a shared incumbent that every
// shard adopts at the start of its next slice.
//
// To the protocol the engine is indistinguishable from one explorer: its
// fold (Remaining) is the covering interval [min shard frontier, B) of the
// union of shard remainders, which shrinks monotonically because shards
// only ever consume or exchange work inside it — so the farmer's
// intersection updates, the checkpoint format and the conformance
// invariants all carry over unchanged (DESIGN.md §7).
//
// Two schedulers drive the shards. The stepped one (the default) advances
// them round-robin inside Step on the calling goroutine and pushes
// improvements synchronously: being entirely caller-driven it is
// deterministic, so the simulator and the chaos harness replay multicore
// workers byte for byte. The goroutine one (start) runs one goroutine per
// shard and hands improvements to the caller at its next Step or
// Remaining, so no shard ever touches the network.
type shardEngine struct {
	nb     *core.Numbering
	shards []*shard

	// quantum is a shard's slice between two looks at the incumbent; turn
	// is the stepped scheduler's round-robin cursor, persisting across
	// Step calls so interleaving depends only on the call sequence.
	quantum int64
	turn    int

	// stealMu serializes work movement (donations) against whole-engine
	// operations (fold, restrict, reassign, stats): a steal concurrent
	// with a fold could move an interval from a not-yet-collected victim
	// to an already-collected thief and the fold would report it explored
	// — lost work. Shard-local exploration needs no such fence; a fold
	// racing a slice merely reports a slightly stale (larger) remainder,
	// which is always safe. It also guards lo and hi, the bounds of the
	// registered interval: the assignment clamped to the root range,
	// narrowed by every Restrict since. hi is the fold's end — a DFS
	// remainder always ends at the interval end, and pinning the multicore
	// fold there too keeps the farmer from mistaking a finished top shard
	// for a stale copy. steals counts the donations it fenced.
	stealMu sync.Mutex
	lo, hi  interval.Num
	steals  int64

	// mu guards the incumbent, the pending improvement and the node tally.
	// It is never held across onImprove: every shard touches it after each
	// slice, so an RPC under it would stall the whole engine.
	mu        sync.Mutex
	best      bb.Solution
	pending   *bb.Solution // improvement awaiting its push
	onImprove func(bb.Solution)
	// unclaimed counts nodes explored since Step last returned; a shard
	// that lifts it to target wakes the caller (goroutine scheduler).
	unclaimed, target int64

	// The goroutine scheduler's parking: a shard that is dry and cannot
	// steal waits for the assignment generation to change. A parked shard
	// stays dry until then (only Reassign deals work to a shard other than
	// the thief), so all parked means the engine is done. wake coalesces
	// shard→caller signals (budget explored, shard parked, improvement
	// pending); it is nil under the stepped scheduler.
	genMu   sync.Mutex
	genCond *sync.Cond
	gen     int64
	parked  int
	stopped bool
	wake    chan struct{}
	shardWG sync.WaitGroup
}

// newShardEngine builds an idle stepped engine with one shard per problem,
// stepping max(stepSize/P, 64)-node slices; Reassign deals it an interval.
func newShardEngine(probs []bb.Problem, stepSize int64, onImprove func(bb.Solution)) *shardEngine {
	g := &shardEngine{
		nb:        core.NewNumbering(probs[0].Shape()),
		quantum:   max(stepSize/int64(len(probs)), 64),
		best:      bb.Solution{Cost: bb.Infinity},
		onImprove: onImprove,
	}
	g.genCond = sync.NewCond(&g.genMu)
	for _, p := range probs {
		sh := &shard{ex: core.NewExplorer(p, g.nb, interval.Interval{}, bb.Infinity)}
		sh.ex.OnImprove = g.improve
		g.shards = append(g.shards, sh)
	}
	return g
}

// start hands the shards to the goroutine scheduler: one goroutine per
// shard, stepping stepSize-node slices until stop.
func (g *shardEngine) start(stepSize int64) {
	g.quantum = stepSize
	g.wake = make(chan struct{}, 1)
	g.shardWG.Add(len(g.shards))
	for _, sh := range g.shards {
		go g.runShard(sh)
	}
}

// stop ends the shard goroutines and waits for them. Idempotent, and a
// no-op under the stepped scheduler; the engine can still be folded
// afterwards.
func (g *shardEngine) stop() {
	g.genMu.Lock()
	g.stopped = true
	g.genCond.Broadcast()
	g.genMu.Unlock()
	g.shardWG.Wait()
}

func (g *shardEngine) signal() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// improve records a shard's improvement in the shared incumbent. It runs
// inside Explorer.Step under the shard's lock. The stepped scheduler pushes
// it at once (rule 2: the coordinator is informed immediately); the
// goroutine scheduler must not touch the network there — fold, steal and
// stats all need that lock — so it wakes the caller, which pushes within
// one wake of the discovery.
func (g *shardEngine) improve(sol bb.Solution) {
	g.mu.Lock()
	if sol.Cost >= g.best.Cost {
		g.mu.Unlock()
		return
	}
	g.best = sol
	g.pending = &sol // OnImprove hands over a private copy
	g.mu.Unlock()
	if g.wake == nil {
		g.deliver()
	} else {
		g.signal()
	}
}

// deliver hands the latest unpushed improvement (if any) to onImprove,
// outside every engine lock. Improvements raced past by a newer one are
// never pushed at all — the farmer would ignore the stale cost anyway.
func (g *shardEngine) deliver() {
	g.mu.Lock()
	sol := g.pending
	g.pending = nil
	g.mu.Unlock()
	if sol != nil {
		g.onImprove(sol.Clone())
	}
}

// Step explores up to budget nodes under the engine's scheduler.
func (g *shardEngine) Step(budget int64) (explored int64, done bool) {
	if g.wake != nil {
		return g.collect(budget)
	}
	return g.roundRobin(budget)
}

// roundRobin is the stepped scheduler: it explores up to budget nodes
// across the shards in quantum-sized slices, stealing for dry shards
// between slices.
func (g *shardEngine) roundRobin(budget int64) (explored int64, done bool) {
	for explored < budget {
		idle := 0
		for range g.shards {
			sh := g.shards[g.turn]
			g.turn = (g.turn + 1) % len(g.shards)
			if sh.ex.Done() && !g.steal(sh) {
				idle++
				continue
			}
			cost := g.bestCost()
			sh.mu.Lock()
			sh.ex.AdoptBest(cost)
			n, _ := sh.ex.Step(min(g.quantum, budget-explored))
			sh.mu.Unlock()
			explored += n
			if explored >= budget {
				break
			}
		}
		if idle == len(g.shards) {
			return explored, true
		}
	}
	for _, sh := range g.shards {
		if !sh.ex.Done() {
			return explored, false
		}
	}
	return explored, true
}

// collect is the goroutine scheduler's Step: it blocks until budget nodes
// were explored engine-wide since it last returned or every shard is
// parked, pushing improvements as they are offered, and returns the nodes
// explored since then. The timeout is a safety net for missed signals; it
// also bounds how long the caller goes without seeing its context.
func (g *shardEngine) collect(budget int64) (explored int64, done bool) {
	g.mu.Lock()
	g.target = budget
	g.mu.Unlock()
	net := time.NewTimer(50 * time.Millisecond)
	defer net.Stop()
	for expired := false; ; {
		g.deliver()
		g.genMu.Lock()
		idle := g.parked == len(g.shards)
		g.genMu.Unlock()
		g.mu.Lock()
		if n := g.unclaimed; idle || expired || n >= budget {
			g.unclaimed = 0
			g.mu.Unlock()
			return n, idle
		}
		g.mu.Unlock()
		select {
		case <-g.wake:
		case <-net.C:
			expired = true
		}
	}
}

// runShard is one shard goroutine: step, steal when dry, park when the
// whole engine is dry.
func (g *shardEngine) runShard(sh *shard) {
	defer g.shardWG.Done()
	for {
		g.genMu.Lock()
		gen, stopped := g.gen, g.stopped
		g.genMu.Unlock()
		if stopped {
			return
		}
		cost := g.bestCost()
		sh.mu.Lock()
		sh.ex.AdoptBest(cost)
		n, done := sh.ex.Step(g.quantum)
		sh.mu.Unlock()
		// Hand the processor over between slices: with shards on every
		// processor, the caller blocked on a shard lock (a fold, the stop
		// path) or on wake would otherwise wait for a preemption.
		runtime.Gosched()
		if n > 0 {
			g.mu.Lock()
			g.unclaimed += n
			due := g.unclaimed >= g.target
			g.mu.Unlock()
			if due {
				g.signal()
			}
		}
		if done && !g.steal(sh) {
			// Nothing to do until the caller assigns a new interval (or
			// stops the engine).
			g.await(gen)
		}
	}
}

// await parks until the assignment generation moves past gen (new work was
// dealt) or the engine stops, telling the caller a shard went idle — if all
// are, the interval is finished.
func (g *shardEngine) await(gen int64) {
	g.genMu.Lock()
	defer g.genMu.Unlock()
	if g.gen != gen {
		return
	}
	g.parked++
	g.signal()
	for g.gen == gen && !g.stopped {
		g.genCond.Wait()
	}
}

// steal moves half of the richest sibling's remainder (largest remainder,
// lowest index on ties — determinism) onto a dry shard, under stealMu so
// donations never race folds. It reports whether the thief has work to do —
// which includes the case where Reassign slipped in between the thief
// going dry and this call and dealt it a fresh tile: overwriting that tile
// with a stolen interval would orphan it (work no shard owns, folded away
// as if explored), so the thief keeps it and the "steal" succeeds
// vacuously.
func (g *shardEngine) steal(thief *shard) bool {
	g.stealMu.Lock()
	defer g.stealMu.Unlock()
	thief.mu.Lock()
	hasWork := !thief.ex.Done()
	thief.mu.Unlock()
	if hasWork {
		return true
	}
	// Victims may keep exploring under their own locks while we scan, so
	// a chosen victim may have drained by the time it is asked to donate;
	// re-scan until a donation lands or no shard has anything to give.
	for {
		lens := make([]interval.Num, len(g.shards))
		for i, sh := range g.shards {
			if sh == thief {
				continue
			}
			sh.mu.Lock()
			if !sh.ex.Done() {
				lens[i] = sh.ex.Remaining().Width()
			}
			sh.mu.Unlock()
		}
		idx := richest(lens)
		if idx < 0 {
			return false
		}
		victim := g.shards[idx]
		victim.mu.Lock()
		give := core.Donate(victim.ex)
		victim.mu.Unlock()
		if give.IsEmpty() {
			continue // drained in the window; remaining work only shrinks
		}
		cost := g.bestCost()
		thief.mu.Lock()
		thief.ex.Reassign(give)
		thief.ex.AdoptBest(cost)
		thief.mu.Unlock()
		g.steals++
		return true
	}
}

// richest picks the steal victim: the index of the largest length that is
// worth splitting (at least 2 numbers; zero marks a non-candidate), lowest
// index on ties, -1 when nobody qualifies.
func richest(lens []interval.Num) int {
	idx := -1
	bestLen := interval.NumInt64(1)
	for i, l := range lens {
		if l.Cmp(bestLen) > 0 {
			idx, bestLen = i, l
		}
	}
	return idx
}

// foldCover is the multicore fold: the covering interval [min remainder
// frontier, hi) of a set of shard remainders, or the empty [hi, hi) when
// nothing remains. Exactly the shape of a single explorer's remainder — a
// DFS remainder always ends at the interval end — so the checkpoint a
// sharded worker re-registers is indistinguishable from the paper's. The
// already-explored holes above the minimum frontier stay inside the fold;
// they are given up only as the frontier passes them, which keeps the fold
// monotone and the redundancy accounting conservative.
func foldCover(rems []interval.Interval, hi interval.Num) interval.Interval {
	lo := hi
	for i, rem := range rems {
		if a := rem.Lo(); i == 0 || a.Cmp(lo) < 0 {
			lo = a
		}
	}
	return interval.Of(lo, hi).Clone()
}

// remainders returns the non-empty shard remainders. Callers hold stealMu,
// so no work is mid-flight between shards.
func (g *shardEngine) remainders() []interval.Interval {
	out := make([]interval.Interval, 0, len(g.shards))
	for _, sh := range g.shards {
		sh.mu.Lock()
		if rem := sh.ex.Remaining(); !rem.IsEmpty() {
			out = append(out, rem)
		}
		sh.mu.Unlock()
	}
	return out
}

// Remaining folds the shard remainders into their covering interval (see
// foldCover), then pushes any pending improvement: an empty fold means
// every shard had run dry, so every improvement of the interval has been
// offered and goes out ahead of the fold that retires it.
func (g *shardEngine) Remaining() interval.Interval {
	g.stealMu.Lock()
	fold := foldCover(g.remainders(), g.hi)
	g.stealMu.Unlock()
	g.deliver()
	return fold
}

// Restrict narrows the registered interval and every shard to the
// coordinator's copy (eq. 14 applied shard-wise; each shard intersects its
// own tile with the reply). An empty copy retires the interval outright.
func (g *shardEngine) Restrict(iv interval.Interval) {
	if iv.IsEmpty() {
		g.Reassign(interval.Interval{})
		return
	}
	g.stealMu.Lock()
	defer g.stealMu.Unlock()
	if iv.Lo().Cmp(g.lo) > 0 {
		g.lo.Set(iv.Lo())
	}
	if iv.Hi().Cmp(g.hi) < 0 {
		g.hi.Set(iv.Hi())
	}
	for _, sh := range g.shards {
		sh.mu.Lock()
		sh.ex.Restrict(iv)
		sh.mu.Unlock()
	}
}

// Reassign gives the engine a new interval: clamp it to the root range,
// record the registered bounds and deal one contiguous tile per shard. An
// empty assignment — including the zero value, which Intersect maps to
// [0,0) — tiles into all-empty pieces, the same "idle explorer owns zero
// leaves" convention as clampAssigned in internal/core. Parked shards wake
// to the new generation.
func (g *shardEngine) Reassign(iv interval.Interval) {
	g.stealMu.Lock()
	clamped := iv.Intersect(g.nb.RootRange())
	g.lo.Set(clamped.Lo())
	g.hi.Set(clamped.Hi())
	parts := interval.SplitEven(clamped, len(g.shards))
	for i, sh := range g.shards {
		sh.mu.Lock()
		sh.ex.Reassign(parts[i])
		sh.mu.Unlock()
	}
	g.turn = 0
	g.stealMu.Unlock()
	g.genMu.Lock()
	g.gen++
	g.parked = 0
	g.genCond.Broadcast()
	g.genMu.Unlock()
}

// bestCost reads the shared incumbent cost.
func (g *shardEngine) bestCost() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.best.Cost
}

// AdoptBest lowers the shared incumbent to an externally learned cost;
// shards pick it up at their next slice.
func (g *shardEngine) AdoptBest(cost int64) {
	g.mu.Lock()
	if cost < g.best.Cost {
		g.best = bb.Solution{Cost: cost}
	}
	g.mu.Unlock()
}

// Best returns a copy of the engine-wide incumbent.
func (g *shardEngine) Best() bb.Solution {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.best.Clone()
}

// Stats sums the shard counters.
func (g *shardEngine) Stats() bb.Stats {
	g.stealMu.Lock()
	defer g.stealMu.Unlock()
	var total bb.Stats
	for _, sh := range g.shards {
		sh.mu.Lock()
		total.Add(sh.ex.Stats())
		sh.mu.Unlock()
	}
	return total
}

var _ engine = (*shardEngine)(nil)

// SolveLocal proves factory's whole tree on the goroutine shard engine with
// no coordinator above it: shards explorers (one fresh Problem each) split
// the root range, share one incumbent primed with initialUpper, steal by
// halving the richest sibling when dry, and stop once every shard parks.
// stepSize is each shard's slice between looks at the incumbent. It returns
// the best solution (cost initialUpper without a path when nothing beat
// it), every shard's counters and the number of steals.
func SolveLocal(factory func() bb.Problem, shards int, stepSize, initialUpper int64) (bb.Solution, []bb.Stats, int64) {
	probs := make([]bb.Problem, shards)
	for i := range probs {
		probs[i] = factory()
	}
	g := newShardEngine(probs, stepSize, func(bb.Solution) {})
	g.start(stepSize)
	g.AdoptBest(initialUpper)
	g.Reassign(g.nb.RootRange())
	for done := false; !done; {
		_, done = g.Step(math.MaxInt64)
	}
	g.stop()
	stats := make([]bb.Stats, shards)
	for i, sh := range g.shards {
		stats[i] = sh.ex.Stats()
	}
	return g.Best(), stats, g.steals
}
