package gridsim

import (
	"fmt"
	"math/big"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
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
	// FarmerCheckpointSeconds is the coordinator snapshot period; the
	// paper's coordinator saves every 30 minutes. Default 1800.
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
	// CheckpointDir, when set, makes the farmer write real two-file
	// snapshots on its cadence.
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
	// Best is the proven optimum.
	Best bb.Solution
	// Table2 is the paper-style statistics block.
	Table2 Table2
	// Trace is the Figure 7 availability series (one point per tick).
	Trace []TracePoint
	// Counters are the raw farmer counters.
	Counters farmer.Counters
	// Redundancy is the duplicated-work accounting.
	Redundancy farmer.RedundancyStats
	// Ticks is the number of simulation steps executed.
	Ticks int
	// Finished reports whether the resolution completed (false: MaxTicks
	// hit first).
	Finished bool
	// Joins and Leaves and Crashes count churn events.
	Joins, Leaves, Crashes int64
	// Store reports the checkpoint store's self-healing events (corrupt
	// generations quarantined, fallback loads, stale temp files swept) —
	// all zero on a healthy disk. Zero-valued with no CheckpointDir.
	Store checkpoint.Stats
}

// Sim runs one simulated resolution. Create with New, drive with Run.
type Sim struct {
	cfg     Config
	factory func() bb.Problem
	fleet   *fleet

	tree   *farmer.Tree
	store  *checkpoint.Store
	result Result
}

// New builds a simulation. factory must return a fresh Problem per call:
// every simulated processor hosts its own B&B process from join to leave,
// like the paper's one-process-per-processor deployment, and a host that
// leaves releases that process, so memory follows the hosts present.
func New(cfg Config, factory func() bb.Problem) *Sim {
	cfg.fillDefaults()
	s := &Sim{cfg: cfg, factory: factory}
	s.fleet = newFleet(cfg.Pool, cfg.Availability, cfg.Seed, "sim")
	s.fleet.tickSeconds = cfg.TickSeconds
	s.fleet.nodesPerGHzPerSecond = cfg.NodesPerGHzPerSecond
	s.fleet.updatePeriodSeconds = cfg.UpdatePeriodSeconds
	s.fleet.start = s.startSession

	nb := core.NewNumbering(factory().Shape())
	f := new(big.Float).SetInt(nb.RootRange().Len())
	f.Mul(f, big.NewFloat(cfg.ThresholdFraction))
	thr, _ := f.Int(nil)
	if thr.Sign() <= 0 {
		thr = big.NewInt(2)
	}
	leaseTTL := time.Duration(cfg.LeaseTTLSeconds * 1e9)
	fopts := []farmer.Option{
		farmer.WithLeaseTTL(leaseTTL),
		farmer.WithThreshold(thr),
		farmer.WithInitialBest(cfg.InitialUpper, nil),
		farmer.WithEqualSplit(cfg.EqualSplit),
	}
	if cfg.CheckpointDir != "" {
		if store, err := checkpoint.NewStore(cfg.CheckpointDir); err == nil {
			s.store = store
			fopts = append(fopts, farmer.WithCheckpointStore(store))
		}
	}
	s.tree = farmer.NewTree(nb.RootRange(), farmer.TreeConfig{
		Subtrees:        cfg.Subtrees,
		SubUpdateEvery:  64,
		SubUpdatePeriod: time.Duration(cfg.SubUpdatePeriodSeconds * 1e9),
		FleetTTL:        leaseTTL,
		Endgame:         cfg.Endgame,
		Clock:           s.fleet.clock,
		RootOptions:     fopts,
		InnerOptions: []farmer.Option{
			farmer.WithLeaseTTL(leaseTTL),
			farmer.WithThreshold(thr),
			farmer.WithEqualSplit(cfg.EqualSplit),
		},
	})
	return s
}

// startSession hosts a single-resolution B&B process on the slot, pulling
// on the slot's coordinator. A multicore slot hosts the real shard engine,
// stepped deterministically inside the session.
func (s *Sim) startSession(slot int, cfg worker.Config) *worker.Session {
	return worker.NewShardedSession(cfg, s.tree.Endpoint(slot), s.factory)
}

// Farmer exposes the root coordinator (e.g. for mid-run inspection in
// tests).
func (s *Sim) Farmer() *farmer.Farmer { return s.tree.Root }

// Run executes the simulation to termination (or MaxTicks) and returns the
// result. The default rate, when the config left NodesPerGHzPerSecond at
// zero, targets a 25-day wall clock using a rough sequential node estimate;
// prefer setting it explicitly via CalibrateRate with a measured node count.
func (s *Sim) Run() (Result, error) {
	cfg := &s.cfg
	if cfg.NodesPerGHzPerSecond <= 0 {
		return Result{}, fmt.Errorf("gridsim: NodesPerGHzPerSecond must be set (use CalibrateRate)")
	}
	f := s.fleet
	dt := cfg.TickSeconds
	ourShare := 1 - cfg.Availability.HostLoadFraction
	nextFarmerCkpt := cfg.FarmerCheckpointSeconds
	var sumActive int64
	for tick := 0; tick < cfg.MaxTicks; tick++ {
		f.beginTick(tick)

		activeCount := 0
		finished := false
		for _, w := range f.active {
			if w == nil {
				continue
			}
			activeCount++
			w.presentSecs += dt
			// A pull-model exchange stalls the worker for a WAN round
			// trip; the stall eats into this tick's exploration time.
			explTime := dt
			if w.pendingComm > 0 {
				if w.pendingComm >= explTime {
					w.pendingComm -= explTime
					continue
				}
				explTime -= w.pendingComm
				w.pendingComm = 0
			}
			n, budget, done, err := f.step(w, explTime)
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
			w.pendingComm += float64(msgs-w.lastMsgs) * cfg.WorkerRTTSeconds
			w.lastMsgs = msgs
		}
		// Drive the sub→root fold cadence so quiet fleets keep their
		// leases alive and rebalancing decisions propagate.
		s.tree.Pulse()
		s.result.Trace = append(s.result.Trace, TracePoint{TimeSeconds: f.nowSecs, Active: activeCount})
		sumActive += int64(activeCount)
		if activeCount > s.result.Table2.MaxWorkers {
			s.result.Table2.MaxWorkers = activeCount
		}
		if cfg.CheckpointDir != "" && f.nowSecs >= nextFarmerCkpt {
			if err := s.tree.Root.Checkpoint(); err != nil {
				return s.result, err
			}
			nextFarmerCkpt += cfg.FarmerCheckpointSeconds
		}
		s.result.Ticks = tick + 1
		if finished || s.tree.Root.Done() {
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

// finalize assembles the Table 2 block.
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
	c := s.tree.Root.Counters()
	s.result.Counters = c
	s.result.Redundancy = s.tree.Root.Redundancy()
	if s.store != nil {
		s.result.Store = s.store.Stats()
	}
	totalMsgs := c.WorkRequests + c.WorkerCheckpoints + c.SolutionReports
	if t2.WallClockSeconds > 0 {
		t2.FarmerExploitation = float64(totalMsgs) * cfg.FarmerCostPerMessageSeconds / t2.WallClockSeconds
	}
	t2.CheckpointOps = c.WorkerCheckpoints + c.FarmerCheckpoints
	t2.WorkAllocations = c.WorkAllocations
	t2.ExploredNodes = gt
	// The redundant rate combines crash re-exploration (node units) with
	// duplicated-interval overlap (leaf units, a rate over the same total
	// work).
	if gt > 0 {
		t2.RedundantRate = float64(f.lostNodes)/float64(gt) + s.result.Redundancy.Rate()
	}
	s.result.Best = s.tree.Root.Best()
}
