package gridsim

import (
	"fmt"
	"math/big"
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

// Config parameterizes a simulated resolution.
type Config struct {
	// Pool is the processor inventory (Table1Pool for the paper's grid).
	Pool []CPUSpec
	// Availability drives joins/leaves/crashes.
	Availability AvailabilityModel
	// Seed makes the whole simulation deterministic.
	Seed int64
	// TickSeconds is the virtual duration of one simulation step.
	// Default 60.
	TickSeconds float64
	// NodesPerGHzPerSecond calibrates exploration speed. The default
	// (see CalibrateRate) scales the instance so the resolution spans
	// roughly the paper's 25 days on the paper's pool.
	NodesPerGHzPerSecond float64
	// UpdatePeriodSeconds is the worker checkpoint cadence. The paper's
	// workers averaged one checkpoint every ~3 minutes
	// (4,094,176 ops / 25 days / 328 workers). Default 180.
	UpdatePeriodSeconds float64
	// FarmerCheckpointSeconds is the coordinator snapshot period: every
	// running job's farmer writes its two-file checkpoint. The paper's
	// coordinator saves every 30 minutes. Default 1800.
	FarmerCheckpointSeconds float64
	// LeaseTTLSeconds is how long a silent worker keeps its interval.
	// Default 3600.
	LeaseTTLSeconds float64
	// FarmerCostPerMessageSeconds is the farmer CPU time charged per
	// processed message (the numerator of its exploitation rate).
	// Default 0.008.
	FarmerCostPerMessageSeconds float64
	// WorkerRTTSeconds stalls a worker per protocol exchange (pull-model
	// synchronous round trip across the WAN). Default 0.5.
	WorkerRTTSeconds float64
	// ThresholdFraction expresses the duplication threshold as a
	// fraction of the root interval's length — the natural scale, since
	// interval lengths count leaves of a factorially large tree, not
	// remaining work. Default 1e-6.
	ThresholdFraction float64
	// InitialUpper primes SOLUTION (0 means unknown/Infinity).
	InitialUpper int64
	// MaxTicks aborts a runaway simulation. Default 200_000.
	MaxTicks int
	// CheckpointDir, when set, backs the job table with a real store:
	// each job writes two-file snapshots under CheckpointDir/<job-id>/
	// on its cadence, and a new simulation over the same directory and
	// Jobs resumes from them. A single resolution writes under default/
	// and always starts fresh, overwriting what it finds there.
	CheckpointDir string
	// EqualSplit disables power-proportional partitioning (ablation).
	EqualSplit bool
	// Subtrees is farmer.TreeConfig.Subtrees: ≥ 2 coordinates the pool
	// through a 2-level farmer tree (DESIGN.md §9), where hosts attach
	// to sub-farmers round-robin by slot, each sub-farmer aggregates its
	// fleet into one fold and one power, and the root only arbitrates
	// inter-subtree rebalancing; below 2 the hosts pull on the one flat
	// farmer. Result counters and the farmer-exploitation rate are the
	// ROOT's — the per-message pressure the tree removes from the single
	// coordinator is exactly what the massive-tree scenario measures.
	Subtrees int
	// SubUpdatePeriodSeconds is the sub→root fold cadence. Default:
	// UpdatePeriodSeconds (the same cadence a worker checkpoints at).
	SubUpdatePeriodSeconds float64
	// Endgame is farmer.TreeConfig.Endgame: the tree arms its
	// crumb-endgame trio (DESIGN.md §12) from the duplication threshold
	// above — the root piggybacks steal hints on fold replies,
	// sub-farmers refill before their tables run dry (low-water rule),
	// and the root duplicates the survivors across subtrees once its
	// tracked total is crumb-scale. No effect when Subtrees < 2.
	Endgame bool
	// Jobs, when set, makes the run multi-tenant: the jobs are submitted
	// to the one job table in order, the factory passed to New is
	// ignored, and every host runs the multi-job worker session, serving
	// whichever job fair share routes it to. Several jobs on a farmer
	// tree (Subtrees ≥ 2) are rejected. Empty: one job, the factory's
	// instance, under checkpoint.DefaultNamespace. Every job runs at
	// once.
	Jobs []SubmittedJob
}

// SubmittedJob is one tenant of a multi-tenant simulation.
type SubmittedJob struct {
	// ID keys the job and its checkpoint namespace.
	ID string
	// Spec describes the instance (weight included).
	Spec jobs.Spec
}

func (c *Config) fillDefaults() {
	if len(c.Pool) == 0 {
		c.Pool = Table1Pool()
	}
	if c.Availability == (AvailabilityModel{}) {
		c.Availability = DefaultAvailability()
	}
	if c.TickSeconds <= 0 {
		c.TickSeconds = 60
	}
	if c.UpdatePeriodSeconds <= 0 {
		c.UpdatePeriodSeconds = 180
	}
	if c.FarmerCheckpointSeconds <= 0 {
		c.FarmerCheckpointSeconds = 1800
	}
	if c.LeaseTTLSeconds <= 0 {
		c.LeaseTTLSeconds = 3600
	}
	if c.FarmerCostPerMessageSeconds <= 0 {
		c.FarmerCostPerMessageSeconds = 0.008
	}
	if c.WorkerRTTSeconds <= 0 {
		c.WorkerRTTSeconds = 0.5
	}
	if c.ThresholdFraction <= 0 {
		c.ThresholdFraction = 1e-6
	}
	if c.SubUpdatePeriodSeconds <= 0 {
		c.SubUpdatePeriodSeconds = c.UpdatePeriodSeconds
	}
	if c.InitialUpper <= 0 {
		c.InitialUpper = bb.Infinity
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 200_000
	}
}

// CalibrateRate returns the NodesPerGHzPerSecond that makes a workload of
// expectedNodes take wantWallSeconds on the given pool under the given
// availability model (using its mean participation). It is how a reduced
// instance plays Ta056 at the 25-day scale.
func CalibrateRate(pool []CPUSpec, m AvailabilityModel, expectedNodes int64, wantWallSeconds float64) float64 {
	var ghzTotal float64
	for _, s := range pool {
		ghzTotal += s.GHz * float64(s.Count)
	}
	// Mean of the half-wave rectified sin² availability profile is
	// Base + Amplitude/4.
	meanFrac := m.BaseFraction + m.Amplitude/4
	activeGHz := ghzTotal * meanFrac
	if activeGHz <= 0 || wantWallSeconds <= 0 {
		return 1
	}
	return float64(expectedNodes) / (activeGHz * wantWallSeconds)
}

// TracePoint is one Figure 7 sample.
type TracePoint struct {
	// TimeSeconds is the virtual timestamp.
	TimeSeconds float64
	// Active is the number of participating processors.
	Active int
}

// Result summarizes a simulated resolution.
type Result struct {
	// Best is the proven optimum of the first job — a single
	// resolution's only one.
	Best bb.Solution
	// Table2 is the paper-style statistics block; its coordinator rows
	// sum over every job.
	Table2 Table2
	// Trace is the Figure 7 availability series (one point per tick).
	Trace []TracePoint
	// Counters are the first job's raw farmer counters.
	Counters farmer.Counters
	// Redundancy is the first job's duplicated-work accounting.
	Redundancy farmer.RedundancyStats
	// Jobs holds per-job outcomes (state, incumbent, farmer counters) in
	// submission order.
	Jobs []jobs.Progress
	// Table carries the job table's tallies (fair-share assignments,
	// resumes, rejections, late traffic).
	Table jobs.Counters
	// Ticks is the number of simulation steps executed.
	Ticks int
	// Finished reports whether every job completed (false: MaxTicks hit
	// first — a new simulation over the same CheckpointDir and Jobs
	// resumes).
	Finished bool
	// Joins and Leaves and Crashes count churn events.
	Joins, Leaves, Crashes int64
	// Store reports the checkpoint store's self-healing events (corrupt
	// generations quarantined, fallback loads, stale temp files swept)
	// across every job namespace — all zero on a healthy disk.
	// Zero-valued with no CheckpointDir.
	Store checkpoint.Stats
}

// Sim runs one simulated grid: a volatile pool whose hosts pull on one
// job table. Create with New, drive with Run.
type Sim struct {
	cfg   Config
	fleet *fleet
	table *jobs.Table
	tree  *farmer.Tree // a single resolution's sub-farmer tier
	store *checkpoint.Store
	// err is a configuration or store failure found by New; Run returns
	// it before the first tick.
	err    error
	result Result

	// onTick, when set (tests), observes the state after every step.
	onTick func(tick int)
}

// New builds a simulation. factory must return a fresh Problem per call:
// every simulated processor hosts its own B&B process from join to leave,
// like the paper's one-process-per-processor deployment, and a host that
// leaves releases that process, so memory follows the hosts present. The
// coordinator is a job table holding the factory's instance as its one
// job — or cfg.Jobs. With CheckpointDir set, a job of cfg.Jobs whose
// namespace already holds a snapshot resumes from it; the factory's single
// resolution starts fresh.
func New(cfg Config, factory func() bb.Problem) *Sim {
	cfg.fillDefaults()
	s := &Sim{cfg: cfg}
	s.fleet = newFleet(cfg.Pool, cfg.Availability, cfg.Seed)
	s.fleet.tickSeconds = cfg.TickSeconds
	s.fleet.nodesPerGHzPerSecond = cfg.NodesPerGHzPerSecond
	s.fleet.updatePeriodSeconds = cfg.UpdatePeriodSeconds
	s.err = s.submit(factory)
	return s
}

// submit opens the store, builds the table and submits every job with the
// farmer options its farmer tree derives for it. A single job's tree folds
// into the job's endpoint and may have sub-farmers; several jobs share the
// table through multi-job sessions, each job's tree flat over the table
// itself.
func (s *Sim) submit(factory func() bb.Problem) error {
	cfg := &s.cfg
	list := cfg.Jobs
	if len(list) == 0 {
		list = []SubmittedJob{{ID: checkpoint.DefaultNamespace, Spec: jobs.Spec{Problem: factory}}}
	}
	if len(list) > 1 && cfg.Subtrees >= 2 {
		return fmt.Errorf("gridsim: %d jobs on a farmer tree of %d sub-farmers: a tree serves one job", len(list), cfg.Subtrees)
	}
	if cfg.CheckpointDir != "" {
		var err error
		if s.store, err = checkpoint.NewStore(cfg.CheckpointDir); err != nil {
			return err
		}
	}
	// Listed jobs resume their namespaces through the table's store. The
	// factory's single resolution gets its namespace as a farmer option
	// and the table no store: a snapshot carries no instance to check it
	// against, so that run starts fresh, as a bare farmer did.
	tableStore, ownStore := s.store, []farmer.Option(nil)
	if s.store != nil && len(cfg.Jobs) == 0 {
		ns, err := s.store.Namespace(checkpoint.DefaultNamespace)
		if err != nil {
			return err
		}
		tableStore, ownStore = nil, []farmer.Option{farmer.WithCheckpointStore(ns)}
	}
	leaseTTL := time.Duration(cfg.LeaseTTLSeconds * 1e9)
	s.table = jobs.NewTable(jobs.Config{
		MaxActive: len(list),
		Store:     tableStore,
		Clock:     s.fleet.clock,
		LeaseTTL:  leaseTTL,
	})
	var up transport.Coordinator = s.table // untagged: fair share picks the job
	if len(list) == 1 {
		up = s.table.Endpoint(list[0].ID)
	}
	specs := make(map[string]jobs.Spec, len(list))
	for _, sj := range list {
		factory, err := sj.Spec.Factory()
		if err != nil {
			return err
		}
		thr := threshold(factory, cfg.ThresholdFraction)
		s.tree = farmer.NewTree(farmer.TreeConfig{
			Subtrees:        cfg.Subtrees,
			SubUpdateEvery:  64,
			SubUpdatePeriod: time.Duration(cfg.SubUpdatePeriodSeconds * 1e9),
			FleetTTL:        leaseTTL,
			Endgame:         cfg.Endgame,
			Clock:           s.fleet.clock,
			RootOptions: append([]farmer.Option{
				farmer.WithLeaseTTL(leaseTTL),
				farmer.WithThreshold(interval.NumBig(thr)),
				farmer.WithInitialBest(cfg.InitialUpper, nil),
				farmer.WithEqualSplit(cfg.EqualSplit),
			}, ownStore...),
			InnerOptions: []farmer.Option{
				farmer.WithLeaseTTL(leaseTTL),
				farmer.WithThreshold(interval.NumBig(thr)),
				farmer.WithEqualSplit(cfg.EqualSplit),
			},
			Upstream: up,
		})
		if err := s.table.Submit(sj.ID, sj.Spec, s.tree.RootOptions...); err != nil {
			return err
		}
		specs[sj.ID] = sj.Spec
	}
	// Every host runs the real shard engine when its slot is multicore,
	// stepped deterministically inside the session: a single-resolution
	// B&B process pulling on its slot's coordinator, or one machine
	// serving whichever job fair share routes it to.
	factories := jobs.SpecFactories(specs)
	s.fleet.start = func(slot int, wc worker.Config) *worker.Session {
		if len(list) > 1 {
			return worker.NewMultiJobSession(wc, s.tree.Endpoint(slot), factories)
		}
		factory, _ := factories(list[0].ID)
		return worker.NewShardedSession(wc, s.tree.Endpoint(slot), factory)
	}
	return nil
}

// threshold is the duplication threshold: fraction of the instance's root
// range, at least 2.
func threshold(factory func() bb.Problem, fraction float64) *big.Int {
	nb := core.NewNumbering(factory().Shape())
	f := new(big.Float).SetInt(nb.RootRange().Len())
	f.Mul(f, big.NewFloat(fraction))
	thr, _ := f.Int(nil)
	if thr.Sign() <= 0 {
		thr = big.NewInt(2)
	}
	return thr
}

// Table exposes the job table (mid-run progress queries in tests and
// tooling — the same surface cmd/jobd serves over HTTP).
func (s *Sim) Table() *jobs.Table { return s.table }

// Run executes the simulation until every job terminates (or MaxTicks) and
// returns the result. The default rate, when the config left
// NodesPerGHzPerSecond at zero, is refused: calibrate it with
// CalibrateRate from a measured node count.
func (s *Sim) Run() (Result, error) {
	cfg := &s.cfg
	if s.err != nil {
		return Result{}, s.err
	}
	if cfg.NodesPerGHzPerSecond <= 0 {
		return Result{}, fmt.Errorf("gridsim: NodesPerGHzPerSecond must be set (use CalibrateRate)")
	}
	f := s.fleet
	dt := cfg.TickSeconds
	ourShare := 1 - cfg.Availability.HostLoadFraction
	nextFarmerCkpt := cfg.FarmerCheckpointSeconds
	var sumActive int64
	for tick := 0; tick < cfg.MaxTicks; tick++ {
		if err := f.beginTick(tick); err != nil {
			return s.result, err
		}

		activeCount := 0
		finished := false
		for _, w := range f.active {
			if w == nil {
				continue
			}
			activeCount++
			w.presentSecs += dt
			f.explore(w, tick)
			// A pull-model exchange stalls the worker for a WAN round
			// trip; the stall eats into this tick's exploration time.
			explTime, budget, ok := w.tick(dt)
			if !ok {
				continue
			}
			n, done, err := f.step(w, budget)
			if err != nil {
				return s.result, err
			}
			if done {
				finished = true
			}
			switch {
			case w.session.HasWork() || (budget > 0 && n == budget):
				// The whole slice went into exploration (possibly
				// mid-node on banked or leftover credit).
				w.exploreSecs += explTime * ourShare
			case budget > 0:
				// Starved partway through the slice: only the explored
				// nodes were real work.
				w.exploreSecs += float64(n) / w.rate * ourShare
			}
			if w.session.HasWork() {
				if err := f.maybeCheckpoint(w); err != nil {
					return s.result, err
				}
			}
			m := w.session.Messages
			msgs := m.Requests + m.Updates + m.Reports
			w.stall += float64(msgs-w.lastMsgs) * cfg.WorkerRTTSeconds
			w.lastMsgs = msgs
		}
		// Drive the sub→root fold cadence so quiet fleets keep their
		// leases alive and rebalancing decisions propagate.
		s.tree.Pulse()
		if s.onTick != nil {
			s.onTick(tick)
		}
		s.result.Trace = append(s.result.Trace, TracePoint{TimeSeconds: f.nowSecs, Active: activeCount})
		sumActive += int64(activeCount)
		if activeCount > s.result.Table2.MaxWorkers {
			s.result.Table2.MaxWorkers = activeCount
		}
		if cfg.CheckpointDir != "" && f.nowSecs >= nextFarmerCkpt {
			if err := s.table.Checkpoint(); err != nil {
				return s.result, err
			}
			nextFarmerCkpt += cfg.FarmerCheckpointSeconds
		}
		s.result.Ticks = tick + 1
		if finished || s.table.Done() {
			s.result.Finished = true
			break
		}
	}
	// Final pulse round: sub-farmers flush straggler statistics so the
	// root counters in the result cover the whole tree.
	s.tree.Pulse()
	s.finalize(sumActive)
	return s.result, nil
}

// finalize assembles the Table 2 block and the per-job outcomes.
func (s *Sim) finalize(sumActive int64) {
	cfg := &s.cfg
	f := s.fleet
	s.result.Joins, s.result.Leaves, s.result.Crashes = f.joins, f.leaves, f.crashes
	t2 := &s.result.Table2
	t2.WallClockSeconds = float64(s.result.Ticks) * cfg.TickSeconds
	// Every host that ever ran: the departed ones, summed at leave in
	// leave order, then the present ones in slot order — the addition
	// order the goldens pin bit for bit. The ground-truth node count is
	// every session's engine counter, including work that died unreported
	// in a crash.
	present, explore, gt := f.departedPresentSecs, f.departedExploreSecs, f.departedExplored
	for _, w := range f.active {
		if w != nil {
			present += w.presentSecs
			explore += w.exploreSecs
			gt += w.session.Stats().Explored
		}
	}
	t2.TotalCPUSeconds = present
	if s.result.Ticks > 0 {
		t2.AvgWorkers = float64(sumActive) / float64(s.result.Ticks)
	}
	if present > 0 {
		t2.WorkerExploitation = explore / present
	}
	var totalMsgs int64
	s.result.Jobs = s.table.List()
	for _, p := range s.result.Jobs {
		c := p.Counters
		totalMsgs += c.WorkRequests + c.WorkerCheckpoints + c.SolutionReports
		t2.CheckpointOps += c.WorkerCheckpoints + c.FarmerCheckpoints
		t2.WorkAllocations += c.WorkAllocations
	}
	first := s.result.Jobs[0]
	s.result.Best = bb.Solution{Cost: first.BestCost, Path: first.BestPath}
	s.result.Counters = first.Counters
	if fm := s.table.Farmer(first.ID); fm != nil {
		s.result.Redundancy = fm.Redundancy()
	}
	s.result.Table = s.table.Counters()
	if s.store != nil {
		s.result.Store = s.store.Stats()
	}
	if t2.WallClockSeconds > 0 {
		t2.FarmerExploitation = float64(totalMsgs) * cfg.FarmerCostPerMessageSeconds / t2.WallClockSeconds
	}
	t2.ExploredNodes = gt
	// The redundant rate combines crash re-exploration (node units) with
	// duplicated-interval overlap (leaf units, a rate over the same total
	// work).
	if gt > 0 {
		t2.RedundantRate = float64(f.lostNodes)/float64(gt) + s.result.Redundancy.Rate()
	}
}
