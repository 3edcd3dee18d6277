package main

import (
	"fmt"

	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/gridsim"
)

// simSeedStride separates the scenario seeds one run simulates, so runs at
// neighbouring -seed values share no scenario.
const simSeedStride = 1_000_003

// simCounts are the virtual-clock counts of one simulated resolution. They
// depend on the scenario seed and on nothing else, so two runs at one seed
// must agree on every field (TestSeedDiscipline): any behavioural drift in
// selection, partitioning, leases or duplication shows here before a clock
// can.
type simCounts struct {
	ticks, allocations, checkpointOps, duplications, msgs int64
	redundantRate                                         float64
}

// simRig is the simulated instance with its pinned answer: Taillard's
// generator at the scale's size, primed one above the optimum (the run-2
// protocol, as TestMassiveGridScenario primes it).
type simRig struct {
	sc       scale
	subtrees int
	factory  func() bb.Problem
	optimum  int64
	primed   int64 // nodes sequential bb.Solve explores under that prime
}

func newSimRig(sc scale, subtrees int) simRig {
	ins := flowshop.Taillard(sc.simJobs, sc.simMachines, sc.simInstanceSeed)
	r := simRig{sc: sc, subtrees: subtrees, optimum: sc.simOptimum, primed: sc.simPrimedNodes}
	r.factory = func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	if r.primed == 0 { // smoke scale: solve on the spot
		sol, _ := bb.Solve(r.factory(), bb.Infinity)
		_, stats := bb.Solve(r.factory(), sol.Cost+1)
		r.optimum, r.primed = sol.Cost, stats.Explored
	}
	return r
}

// build lays the scenario for seed out: the massive pool under one flat
// farmer (subtrees 0) or under a root and its sub-farmers.
func (r simRig) build(seed int64) *gridsim.Sim {
	var cfg gridsim.Config
	if r.subtrees == 0 && r.sc.simWorkers == 2000 {
		cfg = gridsim.MassiveScenario(seed, r.primed, r.sc.simDays)
	} else {
		cfg = gridsim.MassiveTreeScenario(seed, r.primed, r.sc.simDays, r.sc.simWorkers, r.subtrees)
	}
	cfg.InitialUpper = r.optimum + 1
	cfg.MaxTicks = 60_000
	return gridsim.New(cfg, r.factory)
}

// run simulates one resolution as a unit and checks its outcome.
func (r simRig) run(sim *gridsim.Sim, rep *report) (unit, simCounts, error) {
	var res gridsim.Result
	u, err := timed(func() (float64, error) {
		var err error
		res, err = sim.Run()
		// Work in the simulator's own currency: virtual processor-seconds
		// advanced.
		return res.Table2.TotalCPUSeconds, err
	})
	if err != nil {
		return u, simCounts{}, err
	}
	c := res.Counters
	rep.check(res.Finished, "simulation hit MaxTicks after %d ticks", res.Ticks)
	rep.check(res.Best.Cost == r.optimum, "simulated grid proved %d, sequential optimum %d", res.Best.Cost, r.optimum)
	return u, simCounts{
		ticks: int64(res.Ticks), allocations: res.Table2.WorkAllocations, checkpointOps: res.Table2.CheckpointOps,
		duplications: c.Duplications, msgs: c.WorkRequests + c.WorkerCheckpoints + c.SolutionReports,
		redundantRate: res.Table2.RedundantRate,
	}, nil
}

func runSim(subtrees int) func(e *env) error {
	return func(e *env) error {
		rig := newSimRig(e.sc, subtrees)
		if err := e.rehearse(func() (func(), error) {
			rig.build(e.seed)
			return func() {}, nil
		}); err != nil {
			return err
		}
		// simulate runs one resolution as a unit. Unit i of a run simulates
		// scenario seed+i*simSeedStride: how long a resolution takes, in
		// ticks and in real time, moves by several percent from one scenario
		// seed to the next, and a median over a few scenarios moves less.
		simulate := func(i int) (unit, simCounts, error) {
			return rig.run(rig.build(e.seed+int64(i)*simSeedStride), e.rep)
		}
		if !e.trace {
			us, err := repeatFor(e.window(), 0, func(i int) (unit, error) {
				u, _, err := simulate(i)
				return u, err
			})
			e.setEndToEnd(us)
			return err
		}

		// The simulator is closed to decorators, so its layer rows are the
		// counts it returns and the real time it took to produce them.
		u, c, err := simulate(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.log, "seed %d: %+v\n", e.seed, c)
		e.rep.set("vticks", float64(c.ticks))
		e.rep.set("redundancy_pct", 100*c.redundantRate)
		e.rep.set("farmer.work_allocations", float64(c.allocations))
		e.rep.set("farmer.duplications", float64(c.duplications))
		e.rep.set("farmer.msgs", float64(c.msgs))
		if subtrees > 0 {
			// Under a tree the result's counters are the root's: every
			// message it served came up from a sub-farmer.
			e.rep.set("farmer.sub_root_msgs", float64(c.msgs))
		}
		e.rep.set("gridsim.wall_s", u.wall.Seconds())
		e.rep.set("gridsim.us_per_tick", u.wall.Seconds()*1e6/float64(c.ticks))
		e.rep.set("gridsim.ns_per_msg", u.wall.Seconds()*1e9/float64(c.msgs))
		runProbes(e)
		return nil
	}
}
