// Package gridbb is the public API of this repository: a grid-enabled
// Branch and Bound library reproducing Mezmaz, Melab and Talbi,
// "A Grid-enabled Branch and Bound Algorithm for Solving Challenging
// Combinatorial Optimization Problems" (INRIA RR-5945 / IPPS 2007).
//
// The library codes B&B work units as intervals of node numbers over a
// regular search tree (weights, numbers and ranges of §3; fold and unfold
// operators of §3.4–3.5) and runs them under a farmer–worker architecture
// with dynamic load balancing, checkpoint-based fault tolerance, implicit
// termination detection and global solution sharing (§4).
//
// Quick start — define or pick a Problem (see repro/internal/flowshop,
// repro/internal/tsp, repro/internal/knapsack for complete examples), then:
//
//	res, err := gridbb.Solve(problem, gridbb.Options{Workers: 8, ProblemFactory: factory})
//
// For multi-process deployments, run a farmer with ServeFarmer and connect
// workers with RunRemoteWorker, which shards each worker's interval across
// WorkerConfig.Cores explorers behind the unchanged single-worker protocol
// (see cmd/farmer, cmd/worker and the package examples). SolveP2P runs
// in-process peers with no coordinator at all.
//
// README.md is the repository tour; DESIGN.md records the engineering
// decisions (the two-mode explorer §1, the multicore shard engine §7, the
// farmer's grid-scale selection index §8).
package gridbb

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/jobs"
	"repro/internal/transport"
	"repro/internal/worker"
)

// Problem is the problem abstraction: a backtracking state machine over a
// regular tree. See repro/internal/bb for the full contract.
type Problem = bb.Problem

// BoundByDescent is Problem.BoundChild by its definition — Descend, Bound,
// Ascend. A problem written outside this module whose bound gains nothing
// from seeing the parent implements BoundChild by calling it.
func BoundByDescent(p Problem, rank int, cutoff int64) int64 {
	return bb.BoundByDescent(p, rank, cutoff)
}

// Solution is an incumbent (cost + rank path).
type Solution = bb.Solution

// Stats are exploration counters.
type Stats = bb.Stats

// Interval is a half-open work unit [A, B) of node numbers.
type Interval = interval.Interval

// Numbering assigns numbers/ranges to tree nodes (§3.1–3.3).
type Numbering = core.Numbering

// Explorer is the interval-driven DFS engine (one B&B process).
type Explorer = core.Explorer

// NodeRef identifies a node by its rank path.
type NodeRef = core.NodeRef

// Farmer is the coordinator: it owns INTERVALS (served to requesters by
// the §4.2 selection and partitioning operators, answered at grid scale
// by an indexed structure — DESIGN.md §8) and SOLUTION, expires silent
// workers' leases, and checkpoints both to a two-file store.
type Farmer = farmer.Farmer

// WorkerConfig parameterizes one worker process.
type WorkerConfig = worker.Config

// Infinity is the "no solution / no bound" cost sentinel.
const Infinity = bb.Infinity

// NewNumbering builds the node numbering of a problem's tree.
func NewNumbering(p Problem) *Numbering { return core.NewNumbering(p.Shape()) }

// NewExplorer builds an interval-driven engine over iv primed with
// initialUpper.
func NewExplorer(p Problem, nb *Numbering, iv Interval, initialUpper int64) *Explorer {
	return core.NewExplorer(p, nb, iv, initialUpper)
}

// Fold folds an active-node list into its interval (eq. 10).
func Fold(nb *Numbering, active []NodeRef) (Interval, error) { return core.Fold(nb, active) }

// Unfold unfolds an interval into its minimal active-node list (eq. 11).
func Unfold(nb *Numbering, iv Interval) []NodeRef { return core.Unfold(nb, iv) }

// SolveSequential runs the single-process baseline B&B to optimality.
func SolveSequential(p Problem, initialUpper int64) (Solution, Stats) {
	return bb.Solve(p, initialUpper)
}

// Options parameterizes Solve.
type Options struct {
	// Workers is the number of in-process B&B workers (goroutines).
	// Default: 4.
	Workers int
	// Cores is the number of shard explorers inside each worker (the
	// intra-worker multicore engine, DESIGN.md §7): the worker splits its
	// assigned interval across Cores goroutines that rebalance by halving
	// steals and share one incumbent, while the farmer still sees one
	// fold, one power and one checkpoint per worker. Zero or one keeps
	// the paper's single-explorer worker. Requires a ProblemFactory.
	Cores int
	// InitialUpper primes the global best cost; Infinity (the zero
	// Options value is normalized to it) when unknown. The paper's runs
	// start from the best known makespan (§5.3).
	InitialUpper int64
	// InitialPath optionally carries the rank path of the initial
	// solution.
	InitialPath []int
	// UpdatePeriodNodes is the worker checkpoint period in nodes: how
	// much exploration may sit unreported between two interval updates
	// (and so the most a crash can cost). Default: 65536.
	UpdatePeriodNodes int64
	// Threshold is the duplication threshold of the partitioning
	// operator (§4.2); nil uses the farmer default.
	Threshold *big.Int
	// CheckpointDir, when non-empty, attaches a two-file checkpoint
	// store and snapshots the farmer every CheckpointPeriod, and once
	// more at the end. The resolution is the one job of a job table, so
	// its files land in the default namespace:
	// <CheckpointDir>/default/intervals.ckpt and solution.ckpt (a store
	// written directly into CheckpointDir by an older version migrates
	// there). Solve always starts fresh: a snapshot already in the
	// directory is overwritten, never resumed from.
	CheckpointDir string
	// CheckpointPeriod defaults to 30 time.Minute like the paper's
	// coordinator; only used when CheckpointDir is set.
	CheckpointPeriod time.Duration
	// ProblemFactory must return a fresh, independent Problem instance
	// for each worker. Required when Workers > 1 because Problem state
	// machines are single-threaded. When nil, Solve runs a single
	// worker on the given problem.
	ProblemFactory func() Problem
	// Subtrees ≥ 2 coordinates the workers through a 2-level farmer
	// tree (DESIGN.md §9): workers attach to sub-farmers round-robin,
	// each sub-farmer aggregates its fleet into one fold and one power
	// over the unchanged protocol, and the root farmer only arbitrates
	// inter-subtree rebalancing. Zero or one keeps the paper's flat
	// farmer. Result.Counters are the root's either way.
	Subtrees int
}

// Result is the outcome of a parallel resolution.
type Result struct {
	// Best is the optimal solution (with proof: the whole root interval
	// was explored).
	Best Solution
	// Counters are the farmer-side protocol statistics.
	Counters farmer.Counters
	// Redundancy is the duplicated-work accounting.
	Redundancy farmer.RedundancyStats
	// PerWorker are the individual worker results.
	PerWorker []worker.Result
	// Elapsed is the wall-clock duration of the resolution.
	Elapsed time.Duration
}

// Solve runs the full farmer–worker resolution in-process: one coordinator
// goroutine-safe monitor — the one job of a job table — and opt.Workers
// worker goroutines exchanging intervals. It terminates when INTERVALS is
// empty and returns the proven optimum.
func Solve(p Problem, opt Options) (Result, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.InitialUpper == 0 {
		opt.InitialUpper = Infinity
	}
	if opt.Workers > 1 && opt.ProblemFactory == nil {
		return Result{}, fmt.Errorf("gridbb: Workers=%d needs a ProblemFactory (Problem state is single-threaded)", opt.Workers)
	}
	if opt.Cores > 1 && opt.ProblemFactory == nil {
		return Result{}, fmt.Errorf("gridbb: Cores=%d needs a ProblemFactory (one Problem per shard)", opt.Cores)
	}
	fopts := []farmer.Option{farmer.WithInitialBest(opt.InitialUpper, opt.InitialPath)}
	if opt.Threshold != nil {
		fopts = append(fopts, farmer.WithThreshold(opt.Threshold))
	}
	var store *checkpoint.Store
	if opt.CheckpointDir != "" {
		root, err := checkpoint.NewStore(opt.CheckpointDir)
		if err != nil {
			return Result{}, err
		}
		if store, err = root.Namespace(checkpoint.DefaultNamespace); err != nil {
			return Result{}, err
		}
		// The farmer writes into the default namespace, but the table
		// gets no store: a table resumes a namespace's snapshot, and a
		// snapshot carries no instance to check it against, so Solve
		// starts fresh every time, as a bare farmer did.
		fopts = append(fopts, farmer.WithCheckpointStore(store))
	}
	var inner []farmer.Option
	if opt.Threshold != nil {
		inner = append(inner, farmer.WithThreshold(opt.Threshold))
	}
	// The coordinator is a job table holding this resolution as its one
	// job; the sub-farmers of a tree fold into that job's endpoint.
	const id = checkpoint.DefaultNamespace
	table := jobs.NewTable(jobs.Config{})
	tr := farmer.NewTree(farmer.TreeConfig{
		Subtrees:     opt.Subtrees,
		RootOptions:  fopts,
		InnerOptions: inner,
		Upstream:     table.Endpoint(id),
	})
	factory := opt.ProblemFactory
	if factory == nil {
		factory = func() Problem { return p }
	}
	if err := table.Submit(id, jobs.Spec{Problem: factory}, tr.RootOptions...); err != nil {
		return Result{}, err
	}
	f := table.Farmer(id)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The time half of the sub→root fold cadence: quiet fleets must keep
	// their root leases alive even when the piggyback cadence (one fold
	// per UpdateEvery fleet messages) has nothing to ride.
	go func() {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				tr.Pulse()
			}
		}
	}()
	if store != nil {
		period := opt.CheckpointPeriod
		if period <= 0 {
			period = 30 * time.Minute
		}
		go func() {
			ticker := time.NewTicker(period)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					// Best-effort: a failed snapshot must not
					// kill the resolution; the previous one
					// remains valid.
					_ = f.Checkpoint()
				}
			}
		}()
	}

	start := time.Now()
	results := make([]worker.Result, opt.Workers)
	errs := make([]error, opt.Workers)
	var wg sync.WaitGroup
	for i := 0; i < opt.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := worker.Config{
				ID:                transport.WorkerID(fmt.Sprintf("w%03d", i)),
				Power:             1,
				UpdatePeriodNodes: opt.UpdatePeriodNodes,
				Cores:             opt.Cores,
			}
			coord := tr.Endpoint(i)
			if opt.Cores > 1 {
				results[i], errs[i] = worker.RunParallel(ctx, cfg, coord, opt.ProblemFactory)
				return
			}
			prob := p
			if opt.ProblemFactory != nil {
				prob = opt.ProblemFactory()
			}
			results[i], errs[i] = worker.Run(ctx, cfg, coord, prob)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	// One final pulse: flush straggler statistics (fleet checkpoints that
	// landed after each sub-farmer's last fold), so the root counters
	// below report the whole tree.
	tr.Pulse()
	if store != nil {
		// Final snapshot records the completed state.
		if err := f.Checkpoint(); err != nil {
			return Result{}, err
		}
	}
	return Result{
		Best:       f.Best(),
		Counters:   f.Counters(),
		Redundancy: f.Redundancy(),
		PerWorker:  results,
		Elapsed:    time.Since(start),
	}, nil
}

// P2POptions parameterizes SolveP2P.
type P2POptions struct {
	// Peers is the number of concurrent B&B processes. Default 4.
	Peers int
	// InitialUpper primes the shared incumbent (0 → Infinity).
	InitialUpper int64
	// StepBudget is the node slice a peer explores between looks at the
	// shared incumbent. Default 4096.
	StepBudget int64
}

// P2PResult is the outcome of a peer-to-peer resolution.
type P2PResult struct {
	// Best is the proven optimum.
	Best Solution
	// Stats aggregates all peers' engine counters.
	Stats Stats
	// PerPeer are the per-peer explored-node counts.
	PerPeer []int64
	// Steals counts work transfers between peers.
	Steals int64
}

// SolveP2P runs the decentralized variant (the paper's §6 future work)
// in-process: opt.Peers concurrent explorers split the root range with no
// coordinator above them, dry peers steal half of the richest peer's
// remaining interval, every improvement goes to one shared incumbent, and
// the resolution ends when every peer is parked without work. It runs on
// the worker's shard engine under its goroutine scheduler (DESIGN.md §7)
// and proves the same optima as Solve; the trade-off is no central
// checkpoint. The decentralized protocol itself — random victims, a ring
// token for termination, per-peer checkpoints — is modelled,
// deterministically and under chaos, by internal/p2p's Lockstep ring.
func SolveP2P(factory func() Problem, opt P2POptions) (P2PResult, error) {
	if opt.Peers <= 0 {
		opt.Peers = 4
	}
	if opt.StepBudget <= 0 {
		opt.StepBudget = 4096
	}
	if opt.InitialUpper <= 0 {
		opt.InitialUpper = Infinity
	}
	best, perPeer, steals := worker.SolveLocal(factory, opt.Peers, opt.StepBudget, opt.InitialUpper)
	res := P2PResult{Best: best, PerPeer: make([]int64, len(perPeer)), Steals: steals}
	for i, st := range perPeer {
		res.Stats.Add(st)
		res.PerPeer[i] = st.Explored
	}
	if res.Best.Cost < opt.InitialUpper && !res.Best.Valid() {
		return res, fmt.Errorf("p2p: inconsistent incumbent (cost %d without a path)", res.Best.Cost)
	}
	return res, nil
}

// ServerOptions hardens a served farmer against a hostile WAN: read
// deadlines, connection caps, message-size limits, TLS and shared-token
// worker authentication. See transport.ServerOptions.
type ServerOptions = transport.ServerOptions

// DialOptions hardens a remote worker's client leg: per-call deadlines and
// retries (Policy), TLS, token. See transport.DialOptions.
type DialOptions = transport.DialOptions

// Policy is the per-call liveness discipline of the hardened transport:
// Timeout bounds one protocol call, Retries and Backoff pace re-attempts.
// See transport.Policy.
type Policy = transport.Policy

// ServeFarmer starts a TCP farmer for the problem's tree on addr and
// returns the server and the coordinator; so hardens the listener (a zero
// value serves plain TCP with default limits). The wire codec's reference
// interval defaults to the problem's root range — the same range the
// coordinator boundary pins — so connections delta-encode every interval
// against the tightest possible reference without the caller doing
// anything. Use cmd/farmer for the packaged binary.
func ServeFarmer(p Problem, addr string, so ServerOptions, opts ...farmer.Option) (*transport.Server, *Farmer, error) {
	nb := core.NewNumbering(p.Shape())
	f := farmer.New(nb.RootRange(), opts...)
	if so.WireRef.IsEmpty() {
		so.WireRef = nb.RootRange()
	}
	srv, err := transport.ServeWith(f, addr, so)
	if err != nil {
		return nil, nil, err
	}
	return srv, f, nil
}

// RunRemoteWorker connects to a TCP farmer and works until the resolution
// finishes or the context is cancelled. cfg.Cores shard explorers (zero
// means all available cores, one the paper's single explorer) share one
// worker identity, so the farmer sees the single-worker protocol whatever
// the count; factory must return a fresh Problem per call. do hardens the
// client leg (call deadlines, TLS, token; a zero value is the plain dial).
// With do.Share set, every worker session in this process dialed with the
// same address and options multiplexes over ONE physical connection
// (transport.DialShared) instead of opening its own socket at the
// coordinator.
func RunRemoteWorker(ctx context.Context, addr string, do DialOptions, cfg WorkerConfig, factory func() Problem) (worker.Result, error) {
	if do.Share {
		shared := transport.DialShared(addr, do)
		defer shared.Close()
		return worker.RunParallel(ctx, cfg, shared, factory)
	}
	client, err := transport.DialWith(addr, do)
	if err != nil {
		return worker.Result{}, err
	}
	defer client.Close()
	return worker.RunParallel(ctx, cfg, client, factory)
}
