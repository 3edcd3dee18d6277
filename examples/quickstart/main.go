// Quickstart: solve a flowshop instance exactly with the grid-enabled
// Branch and Bound, in-process, and inspect the interval machinery along
// the way.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/gridbb"
	"repro/internal/flowshop"
	"repro/internal/interval"
)

func main() {
	// 1. Pick a problem. Taillard's generator reproduces the published
	// benchmark; 11 jobs keep this demo under a second.
	ins := flowshop.Taillard(11, 5, 3)
	fmt.Printf("solving %s\n", ins)

	// Every worker needs its own Problem value (the state machine is
	// single-threaded), so the library takes a factory.
	factory := func() gridbb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}

	// 2. Look at the coding the paper is about: the whole search space is
	// one interval of node numbers.
	nb := gridbb.NewNumbering(factory())
	fmt.Printf("search space: %s leaves, coded as the interval %v\n",
		nb.LeafCount(), nb.RootRange())

	// A work unit is any sub-interval; unfold shows the frontier it
	// stands for.
	_, right := interval.Halve(nb.RootRange())
	fmt.Printf("the right half %v unfolds into %d frontier nodes\n",
		right, len(gridbb.Unfold(nb, right)))

	// 3. Prime the upper bound with the NEH heuristic, like a production
	// run would.
	_, neh := flowshop.NEH(ins)
	fmt.Printf("NEH upper bound: %d\n", neh)

	// 4. Solve with a farmer and four workers exchanging intervals.
	res, err := gridbb.Solve(factory(), gridbb.Options{
		Workers:        4,
		ProblemFactory: factory,
		InitialUpper:   neh + 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	perm, err := flowshop.PermutationOfPath(ins.Jobs, res.Best.Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal makespan: %d (proof of optimality by exhaustion)\n", res.Best.Cost)
	fmt.Printf("optimal schedule: %v\n", perm)
	fmt.Printf("protocol: %d allocations, %d worker checkpoints, %d solution reports\n",
		res.Counters.WorkAllocations, res.Counters.WorkerCheckpoints, res.Counters.SolutionReports)
	fmt.Printf("explored %d nodes in %s\n", res.Counters.ExploredNodes, res.Elapsed.Round(1e6))
}
