package worker

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/transport"
)

// RunParallel is the goroutine form of the multicore worker: cfg.Cores
// shard explorers (zero means runtime.GOMAXPROCS) run concurrently over a
// tiling of the worker's assigned interval, while the calling goroutine
// owns the protocol — it requests intervals, folds the shard remainders
// into the single covering interval of the paper's checkpoint, and applies
// the coordinator's replies. factory must return a fresh Problem per call
// (one per shard; Problem state machines are single-threaded).
//
// The farmer-visible protocol is byte-for-byte the single-worker protocol:
// one fold, one power, one interval id. Inside, idle shards steal by
// halving the richest sibling's remainder (core.Donate under the victim's
// lock) and improvements go to a shared incumbent cell that also pushes to
// the coordinator immediately, preserving rule 2 of solution sharing.
// Unlike the step-driven shardEngine, this runtime is scheduled by the Go
// runtime and is therefore not deterministic — the simulator and the chaos
// harness use NewShardedSession instead (the determinism boundary,
// DESIGN.md §7).
func RunParallel(ctx context.Context, cfg Config, coord transport.Coordinator, factory func() bb.Problem) (Result, error) {
	cfg.fillDefaults()
	if cfg.Cores <= 0 {
		cfg.Cores = runtime.GOMAXPROCS(0)
	}
	if cfg.Cores == 1 {
		return Run(ctx, cfg, coord, factory())
	}
	w := newParallelWorker(cfg, coord, factory)
	return w.run(ctx)
}

// pshard is one shard explorer plus the lock that serializes every touch of
// it: its own goroutine's Step slices, the protocol loop's folds and
// restricts, and siblings' donations.
type pshard struct {
	mu sync.Mutex
	ex *core.Explorer
}

// parallelWorker wires the shards, the shared incumbent and the protocol
// state together.
type parallelWorker struct {
	cfg     Config
	coord   transport.Coordinator
	nb      *core.Numbering
	shards  []*pshard
	shardWG sync.WaitGroup

	// stealMu serializes work movement (donations) against whole-engine
	// operations (fold, restrict, reassign): a steal concurrent with a
	// fold could move an interval from a not-yet-collected victim to an
	// already-collected thief and the fold would report it explored —
	// lost work. Shard-local exploration needs no such fence; a fold
	// racing a Step slice merely reports a slightly stale (larger)
	// remainder, which is always safe.
	stealMu sync.Mutex

	// mu guards the incumbent cell, the pending report, the protocol
	// error slot and the message counters. It is never held across a
	// coordinator call: every shard touches it after each step slice, so
	// an RPC under it would stall the whole engine on one slow network
	// round.
	mu       sync.Mutex
	best     bb.Solution
	job      string       // WorkReply.Job of the held interval, echoed on folds and reports
	pending  *bb.Solution // local improvement awaiting its ReportSolution
	pushErr  error
	messages struct{ requests, updates, reports int64 }

	// reportMu serializes ReportSolution RPCs (so a slow report cannot
	// interleave with a faster one mid-flight); the incumbent cell itself
	// stays monotone under mu, and the farmer ignores stale worse
	// reports, so cross-ordering is harmless.
	reportMu sync.Mutex

	// gen/parked implement idle-shard parking: a shard that is done and
	// cannot steal waits for the assignment generation to change.
	genMu   sync.Mutex
	genCond *sync.Cond
	gen     int64
	stopped bool

	// wake coalesces shard→protocol signals (checkpoint due, all idle,
	// push error).
	wake chan struct{}

	// sinceUpdate counts explored nodes since the last interval update
	// (under mu — contention is one add per step slice).
	sinceUpdate int64

	// hi is the end of the registered interval, maintained by the
	// protocol loop (assignment and restricts only).
	hi *big.Int

	reported bb.Stats
}

func newParallelWorker(cfg Config, coord transport.Coordinator, factory func() bb.Problem) *parallelWorker {
	probe := factory()
	w := &parallelWorker{
		cfg:   cfg,
		coord: coord,
		nb:    core.NewNumbering(probe.Shape()),
		best:  bb.Solution{Cost: bb.Infinity},
		wake:  make(chan struct{}, 1),
		hi:    new(big.Int),
	}
	fac := reuseFirst(probe, factory)
	w.genCond = sync.NewCond(&w.genMu)
	for i := 0; i < cfg.Cores; i++ {
		sh := &pshard{ex: core.NewExplorer(fac(), w.nb, interval.Interval{}, bb.Infinity)}
		sh.ex.OnImprove = w.offer
		w.shards = append(w.shards, sh)
	}
	return w
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
// RPC under it would freeze every sibling. The discovering shard flushes
// the report the moment its step slice ends (flushReport in runShard) —
// within one slice of the discovery, which is this runtime's "immediately
// informs the coordinator" (rule 2).
func (w *parallelWorker) offer(sol bb.Solution) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if sol.Cost >= w.best.Cost {
		return
	}
	w.best = sol
	w.pending = &sol // OnImprove hands over a private copy
}

// flushReport pushes the latest unreported improvement (if any) to the
// coordinator, outside every shard lock. The coordinator must be safe for
// concurrent use (the farmer monitor and the net/rpc client both are);
// reportMu keeps reports from interleaving mid-flight. Errors are stashed
// for the protocol loop. Improvements raced past by a newer one are never
// reported at all — the farmer would ignore the stale cost anyway.
func (w *parallelWorker) flushReport() {
	w.mu.Lock()
	sol := w.pending
	w.pending = nil
	if sol == nil {
		w.mu.Unlock()
		return
	}
	w.messages.reports++
	job := w.job
	w.mu.Unlock()
	w.reportMu.Lock()
	ack, err := w.coord.ReportSolution(transport.SolutionReport{
		Worker: w.cfg.ID, Cost: sol.Cost, Path: sol.Path, Job: job,
	})
	w.reportMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if w.pushErr == nil {
			w.pushErr = fmt.Errorf("worker %s: report solution: %w", w.cfg.ID, err)
		}
		w.signal()
		return
	}
	if ack.BestCost < w.best.Cost {
		w.best = bb.Solution{Cost: ack.BestCost}
	}
}

// bestCost reads the shared incumbent cost.
func (w *parallelWorker) bestCost() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.best.Cost
}

// adopt lowers the shared incumbent to an externally learned cost.
func (w *parallelWorker) adopt(cost int64) {
	w.mu.Lock()
	if cost < w.best.Cost {
		w.best = bb.Solution{Cost: cost}
	}
	w.mu.Unlock()
}

// runShard is one shard goroutine: step, steal when dry, park when the
// whole engine is dry.
func (w *parallelWorker) runShard(sh *pshard) {
	defer w.shardWG.Done()
	for {
		gen, stopped := w.generation()
		if stopped {
			return
		}
		cost := w.bestCost()
		sh.mu.Lock()
		sh.ex.AdoptBest(cost)
		n, done := sh.ex.Step(w.cfg.StepSize)
		sh.mu.Unlock()
		w.flushReport()
		if n > 0 {
			w.mu.Lock()
			w.sinceUpdate += n
			due := w.sinceUpdate >= w.cfg.UpdatePeriodNodes
			w.mu.Unlock()
			if due {
				w.signal()
			}
		}
		if done && !w.steal(sh) {
			// Nothing to do until the protocol loop assigns a new
			// interval (or retires the worker). Tell it a shard went
			// idle — if all are, the interval is finished.
			w.signal()
			w.await(gen)
		}
	}
}

// generation reads the assignment generation and the stop flag.
func (w *parallelWorker) generation() (int64, bool) {
	w.genMu.Lock()
	defer w.genMu.Unlock()
	return w.gen, w.stopped
}

// await parks until the assignment generation moves past gen (new work was
// dealt) or the worker stops.
func (w *parallelWorker) await(gen int64) {
	w.genMu.Lock()
	for w.gen == gen && !w.stopped {
		w.genCond.Wait()
	}
	w.genMu.Unlock()
}

// bumpGen wakes parked shards after an assignment (or to re-check the stop
// flag).
func (w *parallelWorker) bumpGen() {
	w.genMu.Lock()
	w.gen++
	w.genCond.Broadcast()
	w.genMu.Unlock()
}

// steal moves half of the richest sibling's remainder onto a dry shard,
// under stealMu so donations never race folds. It reports whether the
// thief has work to do — which includes the case where assign() slipped in
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
		return true
	}
}

// fold computes the covering interval of the shard remainders (foldCover,
// shared with the deterministic engine) plus the aggregate engine
// counters, under stealMu so no work is mid-flight between shards.
func (w *parallelWorker) fold() (interval.Interval, bb.Stats) {
	w.stealMu.Lock()
	defer w.stealMu.Unlock()
	var stats bb.Stats
	rems := make([]interval.Interval, 0, len(w.shards))
	for _, sh := range w.shards {
		sh.mu.Lock()
		stats.Add(sh.ex.Stats())
		if !sh.ex.Done() {
			rems = append(rems, sh.ex.Remaining())
		}
		sh.mu.Unlock()
	}
	return foldCover(rems, w.hi), stats
}

// restrictAll narrows every shard to the coordinator's copy.
func (w *parallelWorker) restrictAll(iv interval.Interval) {
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

// assign tiles a fresh interval over the shards and wakes them.
func (w *parallelWorker) assign(iv interval.Interval, bestCost int64) {
	w.adopt(bestCost)
	w.stealMu.Lock()
	clamped := iv.Intersect(w.nb.RootRange())
	clamped.BInto(w.hi)
	parts := interval.SplitEven(clamped, len(w.shards))
	for i, sh := range w.shards {
		sh.mu.Lock()
		sh.ex.Reassign(parts[i])
		sh.ex.AdoptBest(w.bestCost())
		sh.mu.Unlock()
	}
	w.stealMu.Unlock()
	w.bumpGen()
}

// allDone reports whether every shard is dry.
func (w *parallelWorker) allDone() bool {
	w.stealMu.Lock()
	defer w.stealMu.Unlock()
	for _, sh := range w.shards {
		sh.mu.Lock()
		done := sh.ex.Done()
		sh.mu.Unlock()
		if !done {
			return false
		}
	}
	return true
}

// takePushErr returns and clears a stashed report error.
func (w *parallelWorker) takePushErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.pushErr
	w.pushErr = nil
	return err
}

// run is the protocol loop: the single-worker protocol of Session, driving
// the concurrent engine.
func (w *parallelWorker) run(ctx context.Context) (Result, error) {
	defer func() {
		w.genMu.Lock()
		w.stopped = true
		w.genCond.Broadcast()
		w.genMu.Unlock()
		w.shardWG.Wait()
	}()
	for i := range w.shards {
		w.shardWG.Add(1)
		go w.runShard(w.shards[i])
	}

	var intervalID int64
	haveWork := false
	backoff := 10 * time.Millisecond
	calStart := time.Now()
	var calNodes int64
	for {
		select {
		case <-ctx.Done():
			return w.result(), ctx.Err()
		default:
		}
		if err := w.takePushErr(); err != nil {
			return w.result(), err
		}
		if !haveWork {
			w.mu.Lock()
			w.messages.requests++
			w.mu.Unlock()
			reply, err := w.coord.RequestWork(transport.WorkRequest{Worker: w.cfg.ID, Power: w.cfg.Power})
			if err != nil {
				return w.result(), fmt.Errorf("worker %s: request work: %w", w.cfg.ID, err)
			}
			switch reply.Status {
			case transport.WorkFinished:
				return w.result(), nil
			case transport.WorkWait:
				select {
				case <-ctx.Done():
					return w.result(), ctx.Err()
				case <-time.After(backoff):
				}
				if backoff < time.Second {
					backoff *= 2
				}
				continue
			case transport.WorkAssigned:
				backoff = 10 * time.Millisecond
				intervalID = reply.IntervalID
				w.mu.Lock()
				w.job = reply.Job
				w.mu.Unlock()
				w.assign(reply.Interval, reply.BestCost)
				haveWork = true
				continue
			default:
				return w.result(), fmt.Errorf("worker %s: unknown work status %v", w.cfg.ID, reply.Status)
			}
		}
		// Working: wait for a checkpoint to come due, the interval to
		// finish, or an error; the timeout is a safety net for missed
		// signals.
		select {
		case <-ctx.Done():
			return w.result(), ctx.Err()
		case <-w.wake:
		case <-time.After(50 * time.Millisecond):
		}
		w.mu.Lock()
		due := w.sinceUpdate >= w.cfg.UpdatePeriodNodes
		w.mu.Unlock()
		finished := w.allDone()
		if !due && !finished {
			continue
		}
		w.flushReport() // any improvement goes out before its checkpoint
		rem, stats := w.fold()
		if w.cfg.AutoPower {
			if elapsed := time.Since(calStart); elapsed >= 2*time.Second {
				if nodes := stats.Explored - calNodes; nodes > 0 {
					if p := nodes * int64(time.Second) / int64(elapsed); p > 0 {
						w.cfg.Power = p
					}
				}
				calStart, calNodes = time.Now(), stats.Explored
			}
		}
		w.mu.Lock()
		w.messages.updates++
		w.sinceUpdate = 0
		w.mu.Unlock()
		reply, err := w.coord.UpdateInterval(transport.UpdateRequest{
			Worker:        w.cfg.ID,
			IntervalID:    intervalID,
			Remaining:     rem,
			Power:         w.cfg.Power,
			ExploredDelta: stats.Explored - w.reported.Explored,
			PrunedDelta:   stats.Pruned - w.reported.Pruned,
			LeavesDelta:   stats.Leaves - w.reported.Leaves,
			Job:           w.job,
		})
		if err != nil {
			return w.result(), fmt.Errorf("worker %s: update interval: %w", w.cfg.ID, err)
		}
		w.reported = stats
		if !reply.Known {
			// Completed elsewhere or reassigned: drop the interval.
			w.restrictAll(interval.Interval{})
			haveWork = false
			if reply.Finished {
				return w.result(), nil
			}
			continue
		}
		w.adopt(reply.BestCost)
		w.restrictAll(reply.Interval)
		if reply.Finished {
			return w.result(), nil
		}
		if rem.IsEmpty() {
			// The farmer saw the empty fold and retired the interval;
			// time to request fresh work. An interval that merely became
			// empty locally (shards finished during the update RPC) is
			// NOT dropped here: the farmer still holds a non-empty copy
			// leased to us, and only the next update's empty fold
			// releases it — dropping early would strand it until the
			// lease expires and re-explore it wholesale.
			haveWork = false
		}
	}
}

// stats aggregates the shard counters.
func (w *parallelWorker) stats() bb.Stats {
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

func (w *parallelWorker) result() Result {
	stats := w.stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	return Result{
		Best:     w.best.Clone(),
		Stats:    stats,
		Requests: w.messages.requests,
		Updates:  w.messages.updates,
		Reports:  w.messages.reports,
	}
}
