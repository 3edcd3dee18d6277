// Multi-tenant grid simulation: the same volatile processor pool and
// availability physics as Sim, but the coordinator is a jobs.Table holding
// several concurrent resolutions and every simulated host runs the
// multi-job worker.Session — one machine serves whichever tenant
// fair share routes it to, switching trees between work units. This is the
// acceptance substrate for the multi-tenant service: many jobs of mixed
// domains sharing one fleet, each terminating at its proven optimum,
// resumable per job from its namespaced checkpoint.
package gridsim

import (
	"fmt"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/jobs"
	"repro/internal/worker"
)

// SubmittedJob is one tenant of a multi-job simulation.
type SubmittedJob struct {
	// ID keys the job and its checkpoint namespace.
	ID string
	// Spec describes the instance (weight included).
	Spec jobs.Spec
}

// MultiJobConfig parameterizes a simulated multi-tenant service. The
// fields shared with Config mean exactly what they mean there.
type MultiJobConfig struct {
	Pool         []CPUSpec
	Availability AvailabilityModel
	Seed         int64
	TickSeconds  float64
	// NodesPerGHzPerSecond calibrates exploration speed (required).
	NodesPerGHzPerSecond float64
	UpdatePeriodSeconds  float64
	// TableCheckpointSeconds is the service snapshot cadence: every
	// running job's farmer writes its namespaced two-file checkpoint.
	// Default 1800. Effective only with CheckpointDir set.
	TableCheckpointSeconds float64
	LeaseTTLSeconds        float64
	MaxTicks               int
	// CheckpointDir, when set, backs the table with a namespaced store —
	// jobs resume from it on resubmission (crash recovery of the whole
	// service: build a new sim over the same dir and the same job list).
	CheckpointDir string
	// MaxActive bounds concurrently running jobs (0: all submitted).
	MaxActive int
	// Jobs is the tenant list, submitted in order before the first tick.
	Jobs []SubmittedJob
}

func (c *MultiJobConfig) fillDefaults() {
	if len(c.Pool) == 0 {
		c.Pool = SmallPool(24)
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
	if c.TableCheckpointSeconds <= 0 {
		c.TableCheckpointSeconds = 1800
	}
	if c.LeaseTTLSeconds <= 0 {
		c.LeaseTTLSeconds = 3600
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 200_000
	}
	if c.MaxActive <= 0 {
		c.MaxActive = len(c.Jobs)
	}
}

// JobSimResult is one tenant's outcome.
type JobSimResult struct {
	ID    string
	State string
	// Best is the job's final incumbent (the proven optimum when State
	// is "done").
	Best bb.Solution
	// Explored is the job's farmer-accounted node total.
	Explored int64
}

// MultiJobResult summarizes a multi-tenant simulation.
type MultiJobResult struct {
	// Jobs holds per-tenant outcomes in submission order.
	Jobs []JobSimResult
	// Table carries the service-level tallies (fair-share assignments,
	// resumes, rejections).
	Table jobs.Counters
	// Trace is the availability series (one point per tick).
	Trace []TracePoint
	Ticks int
	// Finished reports whether every job reached a terminal state
	// (false: MaxTicks hit first — the resume path picks up from the
	// last table checkpoint).
	Finished               bool
	Joins, Leaves, Crashes int64
	// Store reports the checkpoint store's self-healing events across
	// every job namespace (namespaced sub-stores share their parent's
	// counters). Zero-valued with no CheckpointDir.
	Store checkpoint.Stats
}

// MultiJobSim runs one multi-tenant service over a volatile pool. Create
// with NewMultiJob, drive with Run.
type MultiJobSim struct {
	cfg       MultiJobConfig
	fleet     *fleet
	table     *jobs.Table
	store     *checkpoint.Store
	factories jobs.Factories
	result    MultiJobResult

	// onTick, when set (tests), observes the state after every step.
	onTick func(tick int)
}

// NewMultiJob builds a multi-tenant simulation and submits every
// configured job. With CheckpointDir set, jobs whose namespace already
// holds a snapshot resume from it — the service-restart story.
func NewMultiJob(cfg MultiJobConfig) (*MultiJobSim, error) {
	cfg.fillDefaults()
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("gridsim: no jobs configured")
	}
	s := &MultiJobSim{cfg: cfg}
	s.fleet = newFleet(cfg.Pool, cfg.Availability, cfg.Seed, "mj")
	s.fleet.tickSeconds = cfg.TickSeconds
	s.fleet.nodesPerGHzPerSecond = cfg.NodesPerGHzPerSecond
	s.fleet.updatePeriodSeconds = cfg.UpdatePeriodSeconds
	// One machine serves whichever tenant fair share routes it to, on the
	// real shard engine when the slot is multicore.
	s.fleet.start = func(slot int, wc worker.Config) *worker.Session {
		return worker.NewMultiJobSession(wc, s.table, s.factories)
	}

	if cfg.CheckpointDir != "" {
		store, err := checkpoint.NewStore(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.table = jobs.NewTable(jobs.Config{
		MaxActive: cfg.MaxActive,
		Store:     s.store,
		Clock:     s.fleet.clock,
		LeaseTTL:  time.Duration(cfg.LeaseTTLSeconds * 1e9),
	})
	specs := make(map[string]jobs.Spec, len(cfg.Jobs))
	for _, sj := range cfg.Jobs {
		if err := s.table.Submit(sj.ID, sj.Spec); err != nil {
			return nil, err
		}
		specs[sj.ID] = sj.Spec
	}
	s.factories = jobs.SpecFactories(specs)
	return s, nil
}

// Table exposes the job table (mid-run progress queries in tests and
// tooling — the same surface cmd/jobd serves over HTTP).
func (s *MultiJobSim) Table() *jobs.Table { return s.table }

// Run executes the simulation until every job terminates (or MaxTicks).
func (s *MultiJobSim) Run() (MultiJobResult, error) {
	cfg := &s.cfg
	if cfg.NodesPerGHzPerSecond <= 0 {
		return MultiJobResult{}, fmt.Errorf("gridsim: NodesPerGHzPerSecond must be set")
	}
	f := s.fleet
	nextCkpt := cfg.TableCheckpointSeconds
	for tick := 0; tick < cfg.MaxTicks; tick++ {
		f.beginTick(tick)

		activeCount := 0
		for _, w := range f.active {
			if w == nil {
				continue
			}
			activeCount++
			if _, _, _, err := f.step(w, cfg.TickSeconds); err != nil {
				return s.result, err
			}
			// Unlike Sim, the timer runs on idle hosts too. Checkpoint is
			// a no-op without work, so on an idle host the call only
			// restarts the update clock once a period, which sets when the
			// first timed checkpoint after a grant falls; the multi-tenant
			// golden pins that timing.
			if err := f.maybeCheckpoint(w); err != nil {
				return s.result, err
			}
		}
		if s.onTick != nil {
			s.onTick(tick)
		}
		s.result.Trace = append(s.result.Trace, TracePoint{TimeSeconds: f.nowSecs, Active: activeCount})
		if cfg.CheckpointDir != "" && f.nowSecs >= nextCkpt {
			if err := s.table.Checkpoint(); err != nil {
				return s.result, err
			}
			nextCkpt += cfg.TableCheckpointSeconds
		}
		s.result.Ticks = tick + 1
		if s.table.Done() {
			s.result.Finished = true
			break
		}
	}
	s.result.Joins, s.result.Leaves, s.result.Crashes = f.joins, f.leaves, f.crashes
	for _, p := range s.table.List() {
		s.result.Jobs = append(s.result.Jobs, JobSimResult{
			ID:       p.ID,
			State:    p.State,
			Best:     bb.Solution{Cost: p.BestCost, Path: p.BestPath},
			Explored: p.Counters.ExploredNodes,
		})
	}
	s.result.Table = s.table.Counters()
	if s.store != nil {
		s.result.Store = s.store.Stats()
	}
	return s.result, nil
}

// MultiTenantScenario returns the 8-job acceptance configuration: two
// instances each of the four problem domains — mixed tree shapes and
// weights — on the compressed 60-processor pool with 20-minute "days".
// Every job must terminate at its proven optimum with zero cross-job
// leakage; with a checkpoint dir the whole service survives a restart.
func MultiTenantScenario(seed int64) MultiJobConfig {
	return MultiJobConfig{
		Pool:                   SmallPool(60),
		Availability:           compressedAvailability(),
		Seed:                   seed,
		TickSeconds:            1,
		NodesPerGHzPerSecond:   3,
		UpdatePeriodSeconds:    10,
		TableCheckpointSeconds: 30,
		LeaseTTLSeconds:        60,
		Jobs: []SubmittedJob{
			{ID: "fs10x5a", Spec: jobs.Spec{Domain: "flowshop", Jobs: 10, Machines: 5, Seed: 2, Weight: 3}},
			{ID: "fs10x5b", Spec: jobs.Spec{Domain: "flowshop", Jobs: 10, Machines: 5, Seed: 5, Weight: 2}},
			{ID: "tsp9", Spec: jobs.Spec{Domain: "tsp", N: 9, Seed: 5}},
			{ID: "tsp8", Spec: jobs.Spec{Domain: "tsp", N: 8, Seed: 3}},
			{ID: "qap7a", Spec: jobs.Spec{Domain: "qap", N: 7, Seed: 1}},
			{ID: "qap7b", Spec: jobs.Spec{Domain: "qap", N: 7, Seed: 5}},
			{ID: "knap24", Spec: jobs.Spec{Domain: "knapsack", N: 24, Seed: 5}},
			{ID: "knap20", Spec: jobs.Spec{Domain: "knapsack", N: 20, Seed: 1}},
		},
	}
}
