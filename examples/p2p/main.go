// P2P demo: the paper's announced future work (§6) — drop the farmer
// entirely. Concurrent peers steal intervals directly from each other (the
// victim folds its remaining work, splits it, keeps the left half), share
// one incumbent, and stop when every peer is out of work. Same interval
// coding, same engine, no coordinator, no bottleneck.
//
//	go run ./examples/p2p
package main

import (
	"fmt"
	"log"
	"time"

	"repro/gridbb"
	"repro/internal/flowshop"
)

func main() {
	ins := flowshop.Taillard(12, 10, 5)
	factory := func() gridbb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	fmt.Printf("solving %s with 6 autonomous peers (no farmer)\n", ins)

	start := time.Now()
	res, err := gridbb.SolveP2P(factory, gridbb.P2POptions{Peers: 6})
	if err != nil {
		log.Fatal(err)
	}
	perm, err := flowshop.PermutationOfPath(ins.Jobs, res.Best.Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal makespan: %d (proof of optimality by exhaustion)\n", res.Best.Cost)
	fmt.Printf("optimal schedule: %v\n", perm)
	fmt.Printf("work spread: %v nodes per peer\n", res.PerPeer)
	fmt.Printf("steals: %d\n", res.Steals)
	fmt.Printf("elapsed: %s\n", time.Since(start).Round(time.Millisecond))

	// Cross-check against the farmer–worker runtime.
	fw, err := gridbb.Solve(factory(), gridbb.Options{Workers: 6, ProblemFactory: factory})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("farmer-worker runtime agrees: %v (cost %d)\n", fw.Best.Cost == res.Best.Cost, fw.Best.Cost)
}
