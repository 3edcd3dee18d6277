package harness

import (
	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/jobs"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/tsp"
)

// The scenario matrix: four named fault schedules, one per problem domain,
// covering the grid situations the paper's mechanisms exist for. Each is
// fully deterministic — same seed, same event trace — and every run is held
// to the three conformance invariants (interval partition, incumbent
// optimality, bounded rework). Future PRs extend the matrix by appending
// constructors here; see DESIGN.md §5. Instance sizes are chosen so the
// fault schedules land mid-resolution (the sequential node counts are in
// the constructors' comments — re-probe before retuning).

// QuietGrid is the control: a small pool, no faults, on the knapsack's
// binary tree (~356 sequential nodes; the budgets are scaled down to
// stretch the run over several protocol rounds). Every invariant must hold
// with zero rework — if this scenario reports overlap, the runtime
// duplicates work even in fair weather.
func QuietGrid() Scenario {
	ins := knapsack.Random(20, 5)
	return Scenario{
		Name:    "quiet-grid",
		Factory: func() bb.Problem { return knapsack.NewProblem(ins) },
		Fleet: Fleet{
			Seed:              1,
			Workers:           3,
			UpdatePeriodNodes: 48,
			TickBudget:        48,
			CheckpointEvery:   2,
		},
	}
}

// ChurnyGrid is the paper's worker-failure story (§4.1) pushed hard on a
// flowshop instance (~60k sequential nodes): messages drop in both
// directions and retransmit, workers crash without goodbye and rejoin,
// leases expire and orphaned intervals are re-issued.
func ChurnyGrid() Scenario {
	ins := flowshop.Taillard(12, 5, 7)
	return Scenario{
		Name: "churny-grid",
		Factory: func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		},
		Fleet: Fleet{
			Seed:              2,
			Workers:           4,
			UpdatePeriodNodes: 256,
			TickBudget:        480,
			LeaseTTLTicks:     2,
			CheckpointEvery:   3,
			DropRequestPct:    8,
			DropReplyPct:      8,
			DuplicatePct:      6,
			Kills: []KillEvent{
				{Tick: 4, Slot: 1, RejoinAfter: 3},
				{Tick: 9, Slot: 2, RejoinAfter: 4},
				{Tick: 14, Slot: 0, RejoinAfter: 3},
			},
		},
	}
}

// FarmerFailover is the coordinator-failure story (§4.1) on a TSP instance
// (~42k sequential nodes): the farmer dies twice mid-resolution and
// restores from its two checkpoint files while the workers keep hammering
// it. The restart path exercises the epoch-id and stale-tail mechanics; the
// bounded-rework invariant pins the cost of each crash to the work covered
// since the last snapshot.
func FarmerFailover() Scenario {
	ins := tsp.RandomEuclidean(10, 100, 4)
	return Scenario{
		Name:           "farmer-failover",
		Factory:        func() bb.Problem { return tsp.NewProblem(ins) },
		FarmerRestarts: []int{7, 15},
		CorruptTicks:   []int{13},
		Fleet: Fleet{
			Seed:              3,
			Workers:           3,
			UpdatePeriodNodes: 256,
			TickBudget:        450,
			LeaseTTLTicks:     2,
			CheckpointEvery:   3,
			DiskFaultEvery:    2,
			DropReplyPct:      4,
		},
	}
}

// MulticoreChurn is the intra-worker multicore story (DESIGN.md §7) under
// the §4.1 failure model, on a flowshop instance (~60k sequential nodes):
// every worker runs 4 shard explorers over a tiling of its interval —
// internally rebalanced by halving steals — while replies drop and workers
// crash without goodbye and rejoin. The farmer sees only single-worker
// folds, so all three conformance invariants apply unchanged; the shard
// merge is stepped deterministically inside the session, so two runs must
// still produce byte-identical traces.
func MulticoreChurn() Scenario {
	ins := flowshop.Taillard(12, 5, 19)
	return Scenario{
		Name: "multicore-churn",
		Factory: func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		},
		Cores: 4,
		Fleet: Fleet{
			Seed:              5,
			Workers:           3,
			UpdatePeriodNodes: 256,
			TickBudget:        768,
			LeaseTTLTicks:     2,
			CheckpointEvery:   3,
			DropReplyPct:      10,
			Kills: []KillEvent{
				{Tick: 4, Slot: 1, RejoinAfter: 3},
				{Tick: 9, Slot: 2, RejoinAfter: 4},
				{Tick: 15, Slot: 0, RejoinAfter: 3},
			},
		},
	}
}

// PackedGrid is the fleet-size story of the indexed farmer (DESIGN.md §8)
// on a flowshop instance (~60k sequential nodes): 16 workers — the widest
// scenario of the matrix — whose powers are all distinct by the harness's
// heterogeneity rule, so the selection index carries 16 holder-power
// classes whose treaps churn on every allocation, lease expiry and
// re-admission, while replies drop and workers crash without goodbye. The
// three conformance invariants hold the indexed selection and the heap
// expiry to the same machine-checked properties as the seed scan, and the
// double run must stay byte-identical (the index is deterministic by
// construction: decisions depend only on INTERVALS, never on treap shape).
func PackedGrid() Scenario {
	ins := flowshop.Taillard(12, 5, 23)
	return Scenario{
		Name: "packed-grid",
		Factory: func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		},
		Fleet: Fleet{
			Seed:              6,
			Workers:           16,
			UpdatePeriodNodes: 192,
			TickBudget:        96,
			LeaseTTLTicks:     2,
			CheckpointEvery:   4,
			DropReplyPct:      6,
			DuplicatePct:      4,
			Kills: []KillEvent{
				{Tick: 3, Slot: 5, RejoinAfter: 3},
				{Tick: 6, Slot: 11, RejoinAfter: 4},
				{Tick: 9, Slot: 2, RejoinAfter: 3},
				{Tick: 12, Slot: 14, RejoinAfter: 5},
			},
		},
	}
}

// TreeChurn is the hierarchical-farmer story (DESIGN.md §9) under the
// §4.1 failure model, on a flowshop instance (~60k sequential nodes): six
// workers spread over three sub-farmers, replies dropping on both the
// worker and the coordinator-to-coordinator legs, workers crashing without
// goodbye and rejoining, and two sub-farmers crashing mid-resolution and
// restoring from their own two-file snapshots plus binding file — the root
// sees only a lease blip. Conformance is audited at both tiers (the root's
// §5 invariants and the sub-tier growth laws of topology.go), and the double
// run must stay byte-identical.
func TreeChurn() Scenario {
	ins := flowshop.Taillard(12, 5, 31)
	return Scenario{
		Name: "tree-churn",
		Factory: func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		},
		Subtrees:       3,
		SubUpdateEvery: 4,
		SubRestarts: []SubRestart{
			{Tick: 5, Sub: 1},
			{Tick: 10, Sub: 0},
		},
		// Root restarts compose with sub restarts: tick 7 lands between
		// the two sub restarts, one checkpoint after the first.
		FarmerRestarts: []int{7},
		Fleet: Fleet{
			Seed:              8,
			Workers:           6,
			UpdatePeriodNodes: 256,
			TickBudget:        256,
			LeaseTTLTicks:     3,
			CheckpointEvery:   3,
			DropReplyPct:      6,
			Kills: []KillEvent{
				{Tick: 4, Slot: 1, RejoinAfter: 3},
				{Tick: 9, Slot: 4, RejoinAfter: 4},
			},
		},
	}
}

// EndgameChurn is the crumb-endgame story (DESIGN.md §12) under the §4.1
// failure model, on a flowshop instance (~60k sequential nodes): a
// two-tier tree with the full endgame machinery armed — steal hints on
// fold replies, work-conserving low-water pre-fetch, endgame crumb
// duplication at the root, gap-carving and content-honest folds from the
// subs, and the fan-out-scaled inner threshold — while replies drop on
// both legs, workers crash without goodbye, and a sub-farmer dies and
// restores mid-run with low-water bindings in flight. The conformance
// stakes are higher than TreeChurn's: hints and pre-fetch move intervals
// between subtrees aggressively, and gap folds shrink the root table by
// interior carves, so the §5 invariants (partition at the root, growth
// only at refills below) audit exactly the paths the 10k-fleet scenario
// relies on for its resolution-time claim — and the double run must stay
// byte-identical with all of it armed.
func EndgameChurn() Scenario {
	ins := flowshop.Taillard(12, 5, 41)
	return Scenario{
		Name: "endgame-churn",
		Factory: func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		},
		Subtrees:       3,
		SubUpdateEvery: 4,
		Endgame:        true,
		SubRestarts: []SubRestart{
			{Tick: 8, Sub: 2},
		},
		Fleet: Fleet{
			Seed:              13,
			Workers:           6,
			UpdatePeriodNodes: 256,
			TickBudget:        256,
			LeaseTTLTicks:     3,
			CheckpointEvery:   3,
			DropReplyPct:      6,
			Kills: []KillEvent{
				{Tick: 5, Slot: 2, RejoinAfter: 3},
				{Tick: 11, Slot: 0, RejoinAfter: 4},
			},
		},
	}
}

// StalledCoordinator is the hostile-WAN liveness story (DESIGN.md §10) on
// a flowshop instance (~60k sequential nodes): a two-tier tree where a
// slice of the calls on BOTH legs is black-holed — the coordinator never
// sees them and the caller, who against the unhardened transport would
// block forever, gets transport.ErrDeadline from its call deadline. The
// run must prove the deadline discipline suffices for liveness: workers
// absorb the timeout and re-issue on their own cadence, sub-farmers count
// it (UpstreamTimeouts) and retry on the next fold, a timed-out solution
// report kills the worker process exactly like a lost one, and the
// resolution still terminates with the proven optimum, byte-identical over
// double runs.
func StalledCoordinator() Scenario {
	ins := flowshop.Taillard(12, 5, 37)
	return Scenario{
		Name: "stalled-coordinator",
		Factory: func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		},
		Subtrees:       3,
		SubUpdateEvery: 4,
		Fleet: Fleet{
			Seed:              11,
			Workers:           6,
			UpdatePeriodNodes: 256,
			TickBudget:        256,
			LeaseTTLTicks:     3,
			CheckpointEvery:   3,
			BlackholePct:      12,
		},
	}
}

// MultiJobChurn is the canonical multi-tenant chaos story: three jobs of
// three different domains (flowshop ~8k sequential nodes, TSP ~6k, QAP
// ~3k) share one five-worker fleet of multi-job workers while workers die
// and rejoin, replies drop, every second checkpoint sweep hits an fsync
// EIO, and the operator cancels the QAP job mid-run. The two surviving
// jobs must prove their sequential optima with zero cross-job leakage; the
// flowshop job carries double fair-share weight.
func MultiJobChurn() Scenario {
	return Scenario{
		Name: "multi-job-churn",
		Jobs: []Job{
			{ID: "fs10x5", Spec: jobs.Spec{Domain: "flowshop", Jobs: 10, Machines: 5, Seed: 2, Weight: 2}},
			{ID: "tsp9", Spec: jobs.Spec{Domain: "tsp", N: 9, Seed: 1}},
			{ID: "qap7", Spec: jobs.Spec{Domain: "qap", N: 7, Seed: 2}, CancelAt: 6},
		},
		Fleet: Fleet{
			Seed:              17,
			Workers:           5,
			UpdatePeriodNodes: 256,
			TickBudget:        256,
			LeaseTTLTicks:     3,
			CheckpointEvery:   3,
			DiskFaultEvery:    2,
			DropReplyPct:      6,
			Kills: []KillEvent{
				{Tick: 4, Slot: 1, RejoinAfter: 3},
				{Tick: 8, Slot: 3, RejoinAfter: 4},
			},
		},
	}
}

// PartitionedRing is the p2p future-work story (§6) under a network
// partition on a QAP instance (~13k sequential nodes): the ring is cut in
// half from the very first sweep — while peers 2 and 3 are still starved,
// their only work sources on the far side — so no steals and no
// termination token cross the cut for the window; the ring must neither
// lose work nor declare termination early, and the starved half must catch
// up once the partition heals.
func PartitionedRing() RingScenario {
	ins := qap.Random(8, 15, 9)
	return RingScenario{
		Name:           "partitioned-ring",
		Seed:           4,
		Factory:        func() bb.Problem { return qap.NewProblem(ins) },
		Peers:          4,
		StepBudget:     256,
		PartitionFrom:  1,
		PartitionUntil: 6,
		PartitionCut:   2,
	}
}

// RingRestart is the §6 ring-checkpointing story: peer crashes composed
// with a partition window on a QAP instance (~13k sequential nodes). Every
// peer owns a two-file snapshot (saved at attach, on every steal, and on a
// periodic cadence); two peers die mid-resolution — one of them while the
// ring is still partitioned — and restart from their own snapshots with
// the DFvG token tainted. The conformance layer holds every restore to the
// wrong-search-space guard (the re-opened frontier must cover everything
// the dead peer owned), bounds all re-covered ground by the restore
// events' staleness, forbids termination while any peer is down, and the
// double run must stay byte-identical.
func RingRestart() RingScenario {
	ins := qap.Random(8, 15, 21)
	return RingScenario{
		Name:            "ring-restart",
		Seed:            7,
		Factory:         func() bb.Problem { return qap.NewProblem(ins) },
		Peers:           4,
		StepBudget:      256,
		PartitionFrom:   2,
		PartitionUntil:  5,
		PartitionCut:    2,
		CheckpointEvery: 4,
		Kills: []RingKill{
			{Sweep: 4, Peer: 1, RestoreAfter: 3},
			{Sweep: 10, Peer: 3, RestoreAfter: 4},
		},
	}
}

// GridScenarios returns the farmer-based scenario matrix.
func GridScenarios() []Scenario {
	return []Scenario{QuietGrid(), ChurnyGrid(), FarmerFailover(), MulticoreChurn(), PackedGrid(), TreeChurn(), EndgameChurn(), StalledCoordinator()}
}

// RingScenarios returns the p2p scenario matrix.
func RingScenarios() []RingScenario {
	return []RingScenario{PartitionedRing(), RingRestart()}
}
