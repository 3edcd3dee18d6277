package main

import (
	"io"
	"time"

	"repro/internal/jobs"
)

// defaultSeed is the seed every recorded baseline uses. heldOutSeed is the
// one a PR that claims a gain must also hold on; nothing in this directory
// was tuned against it.
const (
	defaultSeed = 1
	heldOutSeed = 20070326
)

// loadWorkers is the number of workers and client connections every
// workload drives. Fixed at 2, not nproc, so numbers compare across hosts.
const loadWorkers = 2

// workload is one named set of inputs. Names are fixed: later issues refer
// to them.
type workload struct {
	name string
	// why is the one line BENCHMARK.json carries.
	why string
	run func(e *env) error
}

var workloads = []workload{
	{"proof-inproc", "engine-bound proof (bound + explorer do all the work); a coordinator change must not move it", runProof(false)},
	{"proof-tcp-chatty", "same proof over loopback TCP, a fold every 512 nodes; its gap to proof-inproc is the coordination cost", runProof(true)},
	{"farmer-storm", "no engine: 2000 tracked intervals hammered at the paper's 31:1 fold:request mix; farmer index, interval algebra and wire only", runStorm(false)},
	{"checkpoint-storm", "farmer-storm with durable snapshots every 200 ms beside the traffic, then restores; isolates checkpoint interference", runStorm(true)},
	{"tenants-batch", "eight primed jobs of four domains through the job table's fair-share pick, admission queue and per-job farmers", runTenants},
	{"sim-flat-2k", "2000-processor virtual grid with churn, crashes and lease expiry under one flat farmer; counts repeat exactly", runSim(0)},
	{"sim-tree-2k", "same grid under a root and 8 sub-farmers: the only path through Exchange, refill, steal hints and endgame duplication", runSim(8)},
}

// env is what a workload run is given and what it fills.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // sc is smokeScale
	sc       scale
	outDir   string
	log      io.Writer
	rep      *report

	// self is this binary, to spawn for cold-start set-ups; empty under go
	// test. setupOnly marks such a child: build the set-up once and stop.
	self      string
	setupOnly bool
	setups    []float64 // seconds per set-up, for setup_s
}

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// tenant is one submitted job of tenants-batch with its pinned answer.
type tenant struct {
	id   string
	spec jobs.Spec
	// optimum primes the job (the run-2 protocol) and is what it must
	// prove; seqNodes is what sequential bb.Solve explores under that
	// prime, the floor for the job's explored count.
	optimum  int64
	seqNodes int64
}

// scale sizes every workload. fullScale is the benchmark; smokeScale is the
// same code on instances small enough for `go test`.
type scale struct {
	// Proofs: ta056 reduced to proofJobs x proofMachines, primed with
	// proofUpper (its optimum); sequential bb.Solve then explores exactly
	// proofSeqNodes.
	proofJobs, proofMachines int
	proofUpper               int64
	proofSeqNodes            int64
	chattyPeriod             int64

	// Storms: tracked intervals preloaded, fold cycles per script replay
	// and client, and the snapshot cadence of checkpoint-storm.
	stormIntervals int
	stormCycles    int
	snapshotEvery  time.Duration
	restores       int

	tenants []tenant

	// Sims: Taillard(simJobs, simMachines, simInstanceSeed) primed one
	// above its optimum, as TestMassiveGridScenario does.
	simJobs, simMachines int
	simInstanceSeed      int64
	simOptimum           int64
	simPrimedNodes       int64
	simWorkers           int
	simDays              float64

	// The explorer-versus-bb.Solve probe runs on ta056 cut to stepJobs x
	// stepMachines, primed with its optimum stepUpper.
	stepJobs, stepMachines int
	stepUpper              int64

	// setups is how many cold starts setup_s is the median of.
	setups int
	// probeScale divides the unit probes' iteration counts.
	probeScale int
}

var fullScale = scale{
	proofJobs: 18, proofMachines: 10, proofUpper: 1352, proofSeqNodes: 44_882_962,
	chattyPeriod: 512,

	stormIntervals: 2000, stormCycles: 400,
	snapshotEvery: 200 * time.Millisecond, restores: 5,

	// Chosen once so the primed proofs total ~29 M nodes (~1.9 s with two
	// workers): long enough that eight crumb endgames and four queue
	// promotions are a small share, short enough that a 10 s window holds
	// five drains and reports their median. Then frozen.
	tenants: []tenant{
		{"fs-a", jobs.Spec{Domain: "flowshop", Jobs: 15, Machines: 10, Seed: 1, Weight: 3}, 1304, 7_108_101},
		{"fs-b", jobs.Spec{Domain: "flowshop", Jobs: 17, Machines: 8, Seed: 5}, 1173, 5_101_501},
		{"fs-c", jobs.Spec{Domain: "flowshop", Jobs: 16, Machines: 10, Seed: 7}, 1517, 5_012_654},
		{"fs-d", jobs.Spec{Domain: "flowshop", Jobs: 16, Machines: 10, Seed: 8}, 1177, 4_441_258},
		{"tsp-a", jobs.Spec{Domain: "tsp", N: 14, Seed: 2}, 2778, 4_425_382},
		{"tsp-b", jobs.Spec{Domain: "tsp", N: 15, Seed: 3}, 2935, 1_769_442},
		{"qap-a", jobs.Spec{Domain: "qap", N: 11, Seed: 1}, 8460, 1_008_128},
		{"knap-a", jobs.Spec{Domain: "knapsack", N: 36, Seed: 1}, -1084, 156},
	},

	simJobs: 14, simMachines: 10, simInstanceSeed: 3, simOptimum: 1169, simPrimedNodes: 292_994,
	simWorkers: 2000, simDays: 0.5,

	stepJobs: 14, stepMachines: 8, stepUpper: 1082,

	setups: 25, probeScale: 1,
}

var smokeScale = scale{
	proofJobs: 12, proofMachines: 8, proofUpper: 1027, proofSeqNodes: 351_524,
	chattyPeriod: 512,

	stormIntervals: 200, stormCycles: 20,
	snapshotEvery: 20 * time.Millisecond, restores: 2,

	tenants: []tenant{
		{"fs-a", jobs.Spec{Domain: "flowshop", Jobs: 11, Machines: 6, Seed: 1, Weight: 3}, 0, 0},
		{"fs-b", jobs.Spec{Domain: "flowshop", Jobs: 10, Machines: 6, Seed: 2}, 0, 0},
		{"fs-c", jobs.Spec{Domain: "flowshop", Jobs: 10, Machines: 5, Seed: 3}, 0, 0},
		{"fs-d", jobs.Spec{Domain: "flowshop", Jobs: 9, Machines: 5, Seed: 4}, 0, 0},
		{"tsp-a", jobs.Spec{Domain: "tsp", N: 10, Seed: 2}, 0, 0},
		{"tsp-b", jobs.Spec{Domain: "tsp", N: 9, Seed: 3}, 0, 0},
		{"qap-a", jobs.Spec{Domain: "qap", N: 7, Seed: 1}, 0, 0},
		{"knap-a", jobs.Spec{Domain: "knapsack", N: 20, Seed: 1}, 0, 0},
	},

	// The smallest tree scenario found that still terminates: several
	// smaller ones (Taillard 10x6, 11x6 with 4 sub-farmers, 11x8) run to
	// MaxTicks under a tree while their flat twins finish.
	simJobs: 12, simMachines: 8, simInstanceSeed: 3,
	simWorkers: 120, simDays: 0.05,

	stepJobs: 8, stepMachines: 6,

	setups: 3, probeScale: 50,
}
