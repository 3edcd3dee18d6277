package worker

import (
	"math"
	"math/big"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/interval"
)

// pshard is one shard explorer plus the lock that serializes every touch of
// it: its own goroutine's Step slices, the protocol goroutine's folds and
// restricts, and siblings' donations.
type pshard struct {
	mu sync.Mutex
	ex *core.Explorer
}

// parallelWorker is the goroutine form of the multicore engine: one
// goroutine per shard explores concurrently, and the protocol goroutine
// sees the same engine surface as the step-driven shardEngine. Inside, idle
// shards steal by halving the richest sibling's remainder (core.Donate
// under the victim's lock) and improvements go to a shared incumbent cell;
// Step hands them to onImprove on the protocol goroutine, so no shard ever
// touches the network.
type parallelWorker struct {
	nb       *core.Numbering
	shards   []*pshard
	shardWG  sync.WaitGroup
	stepSize int64

	// onImprove receives engine-wide improvements, on the goroutine that
	// calls Step or Remaining (wired to the session's solution push).
	onImprove func(bb.Solution)

	// stealMu serializes work movement (donations) against whole-engine
	// operations (fold, restrict, reassign): a steal concurrent with a
	// fold could move an interval from a not-yet-collected victim to an
	// already-collected thief and the fold would report it explored —
	// lost work. Shard-local exploration needs no such fence; a fold
	// racing a Step slice merely reports a slightly stale (larger)
	// remainder, which is always safe. steals counts the donations it
	// fenced.
	stealMu sync.Mutex
	steals  int64

	// mu guards the incumbent cell, the pending improvement and the node
	// tally. It is never held across onImprove: every shard touches it
	// after each step slice, so an RPC under it would stall the whole
	// engine on one slow network round.
	mu      sync.Mutex
	best    bb.Solution
	pending *bb.Solution // local improvement awaiting its push
	// unclaimed counts nodes explored since Step last returned; a shard
	// that lifts it to target wakes the protocol goroutine.
	unclaimed, target int64

	// gen/parked implement idle-shard parking: a shard that is done and
	// cannot steal waits for the assignment generation to change. A parked
	// shard stays dry until then (only Reassign deals work to a shard
	// other than the caller), so all parked means the engine is done.
	genMu   sync.Mutex
	genCond *sync.Cond
	gen     int64
	parked  int
	stopped bool

	// wake coalesces shard→protocol signals (budget explored, shard
	// parked, improvement pending).
	wake chan struct{}

	// hi is the end of the registered interval, maintained by the
	// protocol goroutine (assignment and restricts only).
	hi *big.Int
}

// newParallelWorker builds an idle engine with one shard per problem and
// starts the shard goroutines; stop ends them.
func newParallelWorker(probs []bb.Problem, stepSize int64, onImprove func(bb.Solution)) *parallelWorker {
	w := &parallelWorker{
		nb:        core.NewNumbering(probs[0].Shape()),
		stepSize:  stepSize,
		onImprove: onImprove,
		best:      bb.Solution{Cost: bb.Infinity},
		wake:      make(chan struct{}, 1),
		hi:        new(big.Int),
	}
	w.genCond = sync.NewCond(&w.genMu)
	for _, p := range probs {
		sh := &pshard{ex: core.NewExplorer(p, w.nb, interval.Interval{}, bb.Infinity)}
		sh.ex.OnImprove = w.offer
		w.shards = append(w.shards, sh)
	}
	w.shardWG.Add(len(w.shards))
	for _, sh := range w.shards {
		go w.runShard(sh)
	}
	return w
}

// stop ends the shard goroutines and waits for them. Idempotent; the
// engine can still be folded afterwards.
func (w *parallelWorker) stop() {
	w.genMu.Lock()
	w.stopped = true
	w.genCond.Broadcast()
	w.genMu.Unlock()
	w.shardWG.Wait()
}

func (w *parallelWorker) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// offer records a shard's improvement in the shared cell and marks it for
// pushing. It runs inside Explorer.Step under the shard's own lock, so it
// must not touch the network: fold/steal/stats all need that lock, and an
// RPC under it would freeze every sibling. It wakes the protocol goroutine
// instead, which pushes within one wake of the discovery — this engine's
// "immediately informs the coordinator" (rule 2).
func (w *parallelWorker) offer(sol bb.Solution) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if sol.Cost >= w.best.Cost {
		return
	}
	w.best = sol
	w.pending = &sol // OnImprove hands over a private copy
	w.signal()
}

// deliver hands the latest unpushed improvement (if any) to onImprove,
// outside every lock. Improvements raced past by a newer one are never
// pushed at all — the farmer would ignore the stale cost anyway.
func (w *parallelWorker) deliver() {
	w.mu.Lock()
	sol := w.pending
	w.pending = nil
	w.mu.Unlock()
	if sol != nil {
		w.onImprove(*sol)
	}
}

// Step blocks until budget nodes were explored engine-wide since it last
// returned or every shard is idle, pushing improvements as they are
// offered, and returns the nodes explored since then. The timeout is a
// safety net for missed signals; it also bounds how long the caller goes
// without seeing its context.
func (w *parallelWorker) Step(budget int64) (explored int64, done bool) {
	w.mu.Lock()
	w.target = budget
	w.mu.Unlock()
	net := time.NewTimer(50 * time.Millisecond)
	defer net.Stop()
	for expired := false; ; {
		w.deliver()
		idle := w.done()
		w.mu.Lock()
		if n := w.unclaimed; idle || expired || n >= budget {
			w.unclaimed = 0
			w.mu.Unlock()
			return n, idle
		}
		w.mu.Unlock()
		select {
		case <-w.wake:
		case <-net.C:
			expired = true
		}
	}
}

// done reports whether every shard is parked.
func (w *parallelWorker) done() bool {
	w.genMu.Lock()
	defer w.genMu.Unlock()
	return w.parked == len(w.shards)
}

// bestCost reads the shared incumbent cost.
func (w *parallelWorker) bestCost() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.best.Cost
}

// AdoptBest lowers the shared incumbent to an externally learned cost;
// shards pick it up at their next slice.
func (w *parallelWorker) AdoptBest(cost int64) {
	w.mu.Lock()
	if cost < w.best.Cost {
		w.best = bb.Solution{Cost: cost}
	}
	w.mu.Unlock()
}

// Best returns a copy of the engine-wide incumbent.
func (w *parallelWorker) Best() bb.Solution {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.best.Clone()
}

// runShard is one shard goroutine: step, steal when dry, park when the
// whole engine is dry.
func (w *parallelWorker) runShard(sh *pshard) {
	defer w.shardWG.Done()
	for {
		w.genMu.Lock()
		gen, stopped := w.gen, w.stopped
		w.genMu.Unlock()
		if stopped {
			return
		}
		cost := w.bestCost()
		sh.mu.Lock()
		sh.ex.AdoptBest(cost)
		n, done := sh.ex.Step(w.stepSize)
		sh.mu.Unlock()
		if n > 0 {
			w.mu.Lock()
			w.unclaimed += n
			due := w.unclaimed >= w.target
			w.mu.Unlock()
			if due {
				w.signal()
			}
		}
		if done && !w.steal(sh) {
			// Nothing to do until the protocol goroutine assigns a new
			// interval (or stops the engine).
			w.await(gen)
		}
	}
}

// await parks until the assignment generation moves past gen (new work was
// dealt) or the engine stops, telling the protocol goroutine a shard went
// idle — if all are, the interval is finished.
func (w *parallelWorker) await(gen int64) {
	w.genMu.Lock()
	defer w.genMu.Unlock()
	if w.gen != gen {
		return
	}
	w.parked++
	w.signal()
	for w.gen == gen && !w.stopped {
		w.genCond.Wait()
	}
}

// steal moves half of the richest sibling's remainder onto a dry shard,
// under stealMu so donations never race folds. It reports whether the
// thief has work to do — which includes the case where Reassign slipped in
// between the thief going dry and this call and dealt it a fresh tile:
// overwriting that tile with a stolen interval would orphan it (work no
// shard owns, folded away as if explored), so the thief keeps it and the
// "steal" succeeds vacuously.
func (w *parallelWorker) steal(thief *pshard) bool {
	w.stealMu.Lock()
	defer w.stealMu.Unlock()
	thief.mu.Lock()
	hasWork := !thief.ex.Done()
	thief.mu.Unlock()
	if hasWork {
		return true
	}
	// Victims keep exploring under their own locks while we scan, so a
	// chosen victim may have drained by the time it is asked to donate;
	// re-scan until a donation lands or no shard has anything to give.
	for {
		lens := make([]*big.Int, len(w.shards))
		for i, sh := range w.shards {
			if sh == thief {
				continue
			}
			sh.mu.Lock()
			if !sh.ex.Done() {
				lens[i] = sh.ex.Remaining().Len()
			}
			sh.mu.Unlock()
		}
		idx := richest(lens)
		if idx < 0 {
			return false
		}
		victim := w.shards[idx]
		victim.mu.Lock()
		give := core.Donate(victim.ex)
		victim.mu.Unlock()
		if give.IsEmpty() {
			continue // drained in the window; remaining work only shrinks
		}
		thief.mu.Lock()
		thief.ex.Reassign(give)
		thief.ex.AdoptBest(w.bestCost())
		thief.mu.Unlock()
		w.steals++
		return true
	}
}

// Remaining computes the covering interval of the shard remainders
// (foldCover, shared with the deterministic engine) under stealMu so no
// work is mid-flight between shards, then pushes any pending improvement:
// an empty fold means every shard had run dry, so every improvement of the
// interval has been offered and goes out ahead of the fold that retires it.
func (w *parallelWorker) Remaining() interval.Interval {
	w.stealMu.Lock()
	rems := make([]interval.Interval, 0, len(w.shards))
	for _, sh := range w.shards {
		sh.mu.Lock()
		if !sh.ex.Done() {
			rems = append(rems, sh.ex.Remaining())
		}
		sh.mu.Unlock()
	}
	w.stealMu.Unlock()
	w.deliver()
	return foldCover(rems, w.hi)
}

// Restrict narrows every shard to the coordinator's copy.
func (w *parallelWorker) Restrict(iv interval.Interval) {
	w.stealMu.Lock()
	defer w.stealMu.Unlock()
	if iv.CmpB(w.hi) < 0 {
		iv.BInto(w.hi)
	}
	for _, sh := range w.shards {
		sh.mu.Lock()
		sh.ex.Restrict(iv)
		sh.mu.Unlock()
	}
}

// Reassign tiles a fresh interval over the shards and wakes them.
func (w *parallelWorker) Reassign(iv interval.Interval) {
	w.stealMu.Lock()
	clamped := iv.Intersect(w.nb.RootRange())
	clamped.BInto(w.hi)
	parts := interval.SplitEven(clamped, len(w.shards))
	for i, sh := range w.shards {
		sh.mu.Lock()
		sh.ex.Reassign(parts[i])
		sh.mu.Unlock()
	}
	w.stealMu.Unlock()
	w.genMu.Lock()
	w.gen++
	w.parked = 0
	w.genCond.Broadcast()
	w.genMu.Unlock()
}

// Stats aggregates the shard counters.
func (w *parallelWorker) Stats() bb.Stats {
	w.stealMu.Lock()
	defer w.stealMu.Unlock()
	var total bb.Stats
	for _, sh := range w.shards {
		sh.mu.Lock()
		total.Add(sh.ex.Stats())
		sh.mu.Unlock()
	}
	return total
}

var _ engine = (*parallelWorker)(nil)

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
	w := newParallelWorker(probs, stepSize, func(bb.Solution) {})
	w.AdoptBest(initialUpper)
	w.Reassign(w.nb.RootRange())
	for done := false; !done; {
		_, done = w.Step(math.MaxInt64)
	}
	w.stop()
	stats := make([]bb.Stats, shards)
	for i, sh := range w.shards {
		stats[i] = sh.ex.Stats()
	}
	return w.Best(), stats, w.steals
}
