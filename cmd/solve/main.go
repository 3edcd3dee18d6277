// Command solve runs the grid-enabled Branch and Bound on a flowshop,
// TSP or knapsack instance, in-process, with any number of workers —
// the quickest way to watch the paper's machinery prove an optimum.
//
// Usage:
//
//	solve -problem flowshop -jobs 12 -machines 10 -seed 5 -workers 8
//	solve -problem flowshop -instance ta056 -reduce-jobs 13 -reduce-machines 8
//	solve -problem tsp -cities 12 -workers 4
//	solve -problem knapsack -items 24
//	solve -problem flowshop -jobs 12 -machines 6 -sequential   # baseline
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/gridbb"
	"repro/internal/flowshop"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/tsp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solve: ")
	var (
		problem    = flag.String("problem", "flowshop", "problem domain: flowshop, tsp, qap, knapsack")
		workers    = flag.Int("workers", 4, "number of in-process workers")
		sequential = flag.Bool("sequential", false, "run the single-process baseline instead")
		p2pMode    = flag.Bool("p2p", false, "use the decentralized peer-to-peer runtime (no farmer)")
		bound      = flag.String("bound", "one", "flowshop bound: one, two, combined")
		useNEH     = flag.Bool("neh", true, "prime the flowshop upper bound with NEH")

		instance   = flag.String("instance", "", "published Taillard instance (flowshop)")
		redJobs    = flag.Int("reduce-jobs", 0, "reduce the named instance to this many jobs")
		redMach    = flag.Int("reduce-machines", 0, "reduce the named instance to this many machines")
		jobs       = flag.Int("jobs", 10, "jobs (flowshop)")
		machines   = flag.Int("machines", 5, "machines (flowshop)")
		seed       = flag.Int64("seed", 1, "instance seed")
		cities     = flag.Int("cities", 10, "cities (tsp)")
		facilities = flag.Int("facilities", 9, "facilities (qap)")
		items      = flag.Int("items", 20, "items (knapsack)")
	)
	flag.Parse()

	var (
		factory func() gridbb.Problem
		decode  func(path []int) string
		upper   = gridbb.Infinity
	)
	switch *problem {
	case "flowshop":
		ins := flowshopInstance(*instance, *redJobs, *redMach, *jobs, *machines, *seed)
		kind, err := flowshop.ParseBound(*bound)
		if err != nil {
			log.Fatal(err)
		}
		if *useNEH {
			_, cmax := flowshop.NEH(ins)
			upper = cmax + 1 // "+1" keeps the NEH schedule itself provable
			fmt.Printf("NEH upper bound: %d\n", cmax)
		}
		factory = func() gridbb.Problem { return flowshop.NewProblem(ins, kind, flowshop.PairsAll) }
		decode = func(path []int) string {
			perm, err := flowshop.PermutationOfPath(ins.Jobs, path)
			if err != nil {
				return fmt.Sprint(err)
			}
			return fmt.Sprint(perm)
		}
		fmt.Printf("instance: %s\n", ins)
	case "tsp":
		ins := tsp.RandomEuclidean(*cities, 1000, *seed)
		factory = func() gridbb.Problem { return tsp.NewProblem(ins) }
		decode = func(path []int) string {
			tour, err := tsp.TourOfPath(ins.N, path)
			if err != nil {
				return fmt.Sprint(err)
			}
			return fmt.Sprint(append([]int{0}, tour...))
		}
		fmt.Printf("instance: %s\n", ins.Name)
	case "qap":
		ins := qap.Random(*facilities, 20, *seed)
		factory = func() gridbb.Problem { return qap.NewProblem(ins) }
		decode = func(path []int) string {
			loc, err := qap.AssignmentOfPath(ins.N, path)
			if err != nil {
				return fmt.Sprint(err)
			}
			return fmt.Sprint(loc)
		}
		fmt.Printf("instance: %s\n", ins.Name)
	case "knapsack":
		ins := knapsack.Random(*items, *seed)
		factory = func() gridbb.Problem { return knapsack.NewProblem(ins) }
		decode = func(path []int) string { return knapsack.NewProblem(ins).DecodePath(path) }
		fmt.Printf("instance: %s\n", ins.Name)
	default:
		log.Fatalf("unknown problem %q", *problem)
	}

	if *sequential {
		start := time.Now()
		sol, stats := gridbb.SolveSequential(factory(), upper)
		report(sol, decode, time.Since(start))
		fmt.Printf("explored %d nodes, pruned %d subtrees, %d leaves\n",
			stats.Explored, stats.Pruned, stats.Leaves)
		return
	}
	if *p2pMode {
		start := time.Now()
		res, err := gridbb.SolveP2P(factory, gridbb.P2POptions{Peers: *workers, InitialUpper: upper})
		if err != nil {
			log.Fatal(err)
		}
		report(res.Best, decode, time.Since(start))
		fmt.Printf("peers %d | steals %d | explored %d nodes\n", *workers, res.Steals, res.Stats.Explored)
		return
	}

	res, err := gridbb.Solve(factory(), gridbb.Options{
		Workers:        *workers,
		ProblemFactory: factory,
		InitialUpper:   upper,
	})
	if err != nil {
		log.Fatal(err)
	}
	report(res.Best, decode, res.Elapsed)
	c := res.Counters
	fmt.Printf("workers %d | allocations %d | checkpoints %d | solutions %d (%d improving)\n",
		*workers, c.WorkAllocations, c.WorkerCheckpoints, c.SolutionReports, c.SolutionImprovements)
	fmt.Printf("explored %d nodes | redundancy %.3f%%\n", c.ExploredNodes, 100*res.Redundancy.Rate())
}

func flowshopInstance(name string, redJobs, redMach, jobs, machines int, seed int64) *flowshop.Instance {
	if name == "" {
		return flowshop.Taillard(jobs, machines, seed)
	}
	ins, err := flowshop.TaillardReduced(name, redJobs, redMach)
	if err != nil {
		log.Fatal(err)
	}
	return ins
}

func report(sol gridbb.Solution, decode func([]int) string, elapsed time.Duration) {
	if !sol.Valid() {
		fmt.Println("no solution improves the initial upper bound (the bound is optimal)")
		os.Exit(0)
	}
	fmt.Printf("optimal cost: %d (proof of optimality by exhaustion)\n", sol.Cost)
	fmt.Printf("solution: %s\n", decode(sol.Path))
	fmt.Printf("elapsed: %s\n", elapsed.Round(time.Millisecond))
}
