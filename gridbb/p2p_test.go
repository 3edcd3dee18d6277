package gridbb

import (
	"testing"
	"time"

	"repro/internal/flowshop"
	"repro/internal/knapsack"
	"repro/internal/tsp"
)

// TestP2PSolvesFlowshop: concurrent peers prove the sequential optimum at
// several concurrency levels, and the per-peer counts add up to the total.
// Only deterministic outcomes are asserted: steal counts depend on goroutine
// scheduling (a fast host can legitimately finish a small instance solo
// before any thief is served), so the steal itself is pinned under the
// shard engine's stepped scheduler (internal/worker's
// TestShardEngineStealsRebalance), where the schedule is deterministic.
func TestP2PSolvesFlowshop(t *testing.T) {
	ins := flowshop.Taillard(12, 10, 5)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := SolveSequential(factory(), Infinity)
	for _, peers := range []int{1, 2, 4, 8} {
		// Runs are concurrent: each repetition schedules differently.
		for rep := 0; rep < 2; rep++ {
			res, err := SolveP2P(factory, P2POptions{Peers: peers, StepBudget: 500})
			if err != nil {
				t.Fatalf("peers=%d rep=%d: %v", peers, rep, err)
			}
			if res.Best.Cost != want.Cost {
				t.Fatalf("peers=%d rep=%d: best %d, want %d", peers, rep, res.Best.Cost, want.Cost)
			}
			if len(res.PerPeer) != peers {
				t.Fatalf("peers=%d rep=%d: %d per-peer counts", peers, rep, len(res.PerPeer))
			}
			var sum int64
			for _, n := range res.PerPeer {
				sum += n
			}
			if sum != res.Stats.Explored {
				t.Fatalf("peers=%d rep=%d: per-peer counts sum to %d, total explored %d", peers, rep, sum, res.Stats.Explored)
			}
		}
	}
}

// TestP2PSinglePeer degenerates to sequential exploration.
func TestP2PSinglePeer(t *testing.T) {
	ins := knapsack.Random(14, 3)
	factory := func() Problem { return knapsack.NewProblem(ins) }
	want, wantStats := SolveSequential(factory(), Infinity)
	res, err := SolveP2P(factory, P2POptions{Peers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("best %d, want %d", res.Best.Cost, want.Cost)
	}
	if res.Stats.Explored != wantStats.Explored {
		t.Fatalf("explored %d, sequential %d", res.Stats.Explored, wantStats.Explored)
	}
	if res.Steals != 0 {
		t.Fatalf("single peer stole %d times", res.Steals)
	}
}

// TestP2PTSP: problem independence.
func TestP2PTSP(t *testing.T) {
	ins := tsp.RandomEuclidean(10, 200, 8)
	factory := func() Problem { return tsp.NewProblem(ins) }
	want, _ := SolveSequential(factory(), Infinity)
	res, err := SolveP2P(factory, P2POptions{Peers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("best %d, want %d", res.Best.Cost, want.Cost)
	}
}

// TestP2PWithInitialUpper: priming just above the optimum still recovers
// the optimal solution, path included.
func TestP2PWithInitialUpper(t *testing.T) {
	ins := flowshop.Taillard(10, 6, 21)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := SolveSequential(factory(), Infinity)
	res, err := SolveP2P(factory, P2POptions{Peers: 4, InitialUpper: want.Cost + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost || !res.Best.Valid() {
		t.Fatalf("primed best %+v, want cost %d with a path", res.Best, want.Cost)
	}
}

// TestP2PTerminatesPromptly guards against termination hangs.
func TestP2PTerminatesPromptly(t *testing.T) {
	ins := flowshop.Taillard(9, 5, 2)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := SolveP2P(factory, P2POptions{Peers: 6}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("p2p resolution hung")
	}
}
