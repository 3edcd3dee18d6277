package gridbb_test

import (
	"context"
	"fmt"

	"repro/gridbb"
	"repro/internal/flowshop"
	"repro/internal/tree"
)

// ExampleSolve proves the optimum of a small flowshop instance with four
// workers exchanging intervals through an in-process farmer.
func ExampleSolve() {
	ins := flowshop.Taillard(9, 5, 7)
	factory := func() gridbb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	res, err := gridbb.Solve(factory(), gridbb.Options{Workers: 4, ProblemFactory: factory})
	if err != nil {
		fmt.Println(err)
		return
	}
	perm, _ := flowshop.PermutationOfPath(ins.Jobs, res.Best.Path)
	fmt.Printf("optimal makespan %d, schedule valid: %v\n", res.Best.Cost, ins.Makespan(perm) == res.Best.Cost)
	// Output:
	// optimal makespan 683, schedule valid: true
}

// ExampleRunRemoteWorker runs a real multi-process deployment in
// miniature: a TCP farmer (what cmd/farmer wraps) and one multicore worker
// (what cmd/worker -cores wraps) that shards its assigned interval across
// two explorers while the farmer sees the unchanged single-worker protocol
// — one fold, one power, one checkpoint per round.
func ExampleRunRemoteWorker() {
	ins := flowshop.Taillard(9, 5, 7)
	factory := func() gridbb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	srv, farmer, err := gridbb.ServeFarmer(factory(), "127.0.0.1:0", gridbb.ServerOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()

	cfg := gridbb.WorkerConfig{ID: "mc-worker", Power: 2, Cores: 2}
	if _, err := gridbb.RunRemoteWorker(context.Background(), srv.Addr(), gridbb.DialOptions{}, cfg, factory); err != nil {
		fmt.Println(err)
		return
	}
	best := farmer.Best()
	perm, _ := flowshop.PermutationOfPath(ins.Jobs, best.Path)
	fmt.Printf("proven optimal makespan %d, schedule valid: %v, finished: %v\n",
		best.Cost, ins.Makespan(perm) == best.Cost, farmer.Done())
	// Output:
	// proven optimal makespan 683, schedule valid: true, finished: true
}

// ExampleUnfold shows the interval coding: an interval of node numbers
// unfolds into the minimal depth-first frontier covering it, and folds
// back to exactly the same interval (paper §3.4–3.5).
func ExampleUnfold() {
	p := flowshop.NewProblem(flowshop.Taillard(4, 2, 1), flowshop.BoundOneMachine, flowshop.PairsAll)
	nb := gridbb.NewNumbering(p)
	fmt.Printf("tree: %s, %s leaves\n", tree.Permutation{N: 4}.Name(), nb.LeafCount())

	// Unfold [5,19) of the 24-leaf tree.
	nodes := gridbb.Unfold(nb, intervalOf(5, 19))
	for _, n := range nodes {
		fmt.Printf("%v covers %v\n", n, nb.Range(n.Ranks))
	}
	back, _ := gridbb.Fold(nb, nodes)
	fmt.Printf("fold gives back %v\n", back)
	// Output:
	// tree: permutation(4), 24 leaves
	// <0.2.1> covers [5,6)
	// <1> covers [6,12)
	// <2> covers [12,18)
	// <3.0.0> covers [18,19)
	// fold gives back [5,19)
}

func intervalOf(a, b int64) gridbb.Interval {
	var iv gridbb.Interval
	_ = iv.UnmarshalText([]byte(fmt.Sprintf("%d %d", a, b)))
	return iv
}
