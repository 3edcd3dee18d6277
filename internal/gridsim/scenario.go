package gridsim

import "repro/internal/jobs"

// Scenario presets. The same two configurations are used by cmd/gridsim,
// cmd/experiments and the examples; keeping them here makes the replay
// parameters part of the library's contract rather than copy-pasted
// literals.

// compressedAvailability is the Figure 7 availability model with the
// working day compressed to 20 virtual minutes: the churn of the paper's
// 25 days inside a run that takes seconds.
func compressedAvailability() AvailabilityModel {
	return AvailabilityModel{
		BaseFraction: 0.2, Amplitude: 0.6, NoiseFraction: 0.08,
		NoisePeriodSeconds: 60, DaySeconds: 1200, CrashShare: 0.25,
		RampSeconds: 60, PhaseJitterRadians: 0.3, HostLoadFraction: 0.025,
	}
}

// PaperScenario returns the configuration replaying the paper's experiment:
// the Table 1 pool under the Figure 7 availability model, with the
// exploration rate calibrated so a workload of expectedNodes spans
// wallDays virtual days. Runs take a few real minutes; the statistics land
// on the paper's Table 2 (see EXPERIMENTS.md).
func PaperScenario(seed int64, expectedNodes int64, wallDays float64) Config {
	m := DefaultAvailability()
	return Config{
		Pool:                 Table1Pool(),
		Availability:         m,
		Seed:                 seed,
		TickSeconds:          60,
		NodesPerGHzPerSecond: CalibrateRate(Table1Pool(), m, expectedNodes, wallDays*86400),
	}
}

// MassiveScenario returns the massive-grid configuration: the paper's full
// Table 1 pool topped up to ~2000 processors (MassivePool) under the
// Figure 7 availability model with compressed 20-minute "days". It exists
// to reproduce the paper's farmer-exploitation claim at full fleet size —
// one coordinator serving the whole grid while staying almost idle —
// which is only an honest claim when serving a request does not degrade
// with the number of tracked intervals (the selection index, DESIGN.md
// §8; before it, a run at this scale spent most of its wall clock inside
// the farmer's O(W) scans). expectedNodes calibrates the exploration rate
// so the resolution spans roughly wallDays compressed days. It is the
// massive tree with no sub-farmers: one flat farmer at 2000 processors.
func MassiveScenario(seed int64, expectedNodes int64, wallDays float64) Config {
	return MassiveTreeScenario(seed, expectedNodes, wallDays, 2000, 0)
}

// MassiveTreeScenario returns the 10k-processor hierarchical-farmer
// configuration (DESIGN.md §9): the paper's Table 1 pool topped up to
// `workers` processors under the compressed Figure 7 availability model,
// coordinated by a 2-level tree of `subtrees` sub-farmers. It exists to
// measure the coordination claim one order of magnitude past the indexed
// flat farmer: at 10k workers the flat coordinator's per-wall-second
// message pressure pushes its exploitation rate toward saturation, while
// the tree's root serves only sub-farmer folds and refills — per-request
// cost flat in the subtree count, aggregate coordination throughput scaling
// with the number of sub-farmers. Pass subtrees = 0 for the flat control at
// the same load.
func MassiveTreeScenario(seed int64, expectedNodes int64, wallDays float64, workers, subtrees int) Config {
	m := compressedAvailability()
	pool := MassivePool(workers)
	return Config{
		Pool:                pool,
		Availability:        m,
		Seed:                seed,
		TickSeconds:         1,
		UpdatePeriodSeconds: 180,
		LeaseTTLSeconds:     360,
		Subtrees:            subtrees,
		// Sub-farmers fold up every virtual minute: rebalancing
		// decisions (tail donations, drops) propagate within a fold, so
		// a faster cadence shortens the duplicated-work window at a
		// cost of 3 messages per sub-farmer-minute at the root — noise
		// against the fleet's tens of thousands.
		SubUpdatePeriodSeconds: 60,
		// The endgame trio (steal hints, low-water refill, crumb
		// duplication) is on: without it the tree pays a ~2.2× virtual-
		// time tail over the flat control once only crumbs remain
		// (BENCH_pr5.json); with it the ratio is pinned ≤ 1.4× by
		// TestMassiveTreeGridScenario.
		Endgame:              true,
		NodesPerGHzPerSecond: CalibrateRate(pool, m, expectedNodes, wallDays*1200),
	}
}

// FastScenario returns a compressed configuration — a 60-processor pool,
// 20-minute "days", 1-second ticks — that reproduces the qualitative
// Table 2 / Figure 7 shape in a few real seconds. expectedNodes calibrates
// the rate so the run spans roughly wallDays compressed days (each 1200
// virtual seconds).
func FastScenario(seed int64, expectedNodes int64, wallDays float64) Config {
	m := compressedAvailability()
	pool := SmallPool(60)
	return Config{
		Pool:                 pool,
		Availability:         m,
		Seed:                 seed,
		TickSeconds:          1,
		UpdatePeriodSeconds:  10,
		LeaseTTLSeconds:      60,
		NodesPerGHzPerSecond: CalibrateRate(pool, m, expectedNodes, wallDays*1200),
	}
}

// MultiTenantScenario returns the 8-job acceptance configuration: two
// instances each of the four problem domains — mixed tree shapes and
// weights — on the compressed 60-processor pool with 20-minute "days".
// Every job must terminate at its proven optimum with zero cross-job
// leakage; with a checkpoint dir the whole service survives a restart
// (build a new simulation over the same dir and the same job list).
func MultiTenantScenario(seed int64) Config {
	return Config{
		Pool:                    SmallPool(60),
		Availability:            compressedAvailability(),
		Seed:                    seed,
		TickSeconds:             1,
		NodesPerGHzPerSecond:    3,
		UpdatePeriodSeconds:     10,
		FarmerCheckpointSeconds: 30,
		LeaseTTLSeconds:         60,
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
