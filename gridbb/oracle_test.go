package gridbb_test

import (
	"testing"

	"repro/gridbb"
	"repro/internal/flowshop"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/tsp"
)

// TestCrossDomainOracle is the problem-independence claim of the paper's
// Table 3 as a machine-checked oracle: every runtime the facade offers —
// the farmer–worker grid and the coordinator-free p2p peers — must prove the
// sequential baseline's optimum on all four problem domains, and the
// returned path must be a real leaf of that cost.
func TestCrossDomainOracle(t *testing.T) {
	cases := []struct {
		name    string
		factory func() gridbb.Problem
	}{
		{"flowshop", func() gridbb.Problem {
			return flowshop.NewProblem(flowshop.Taillard(10, 6, 13), flowshop.BoundOneMachine, flowshop.PairsAll)
		}},
		{"tsp", func() gridbb.Problem { return tsp.NewProblem(tsp.RandomEuclidean(9, 150, 6)) }},
		{"qap", func() gridbb.Problem { return qap.NewProblem(qap.Random(7, 12, 5)) }},
		{"knapsack", func() gridbb.Problem { return knapsack.NewProblem(knapsack.Random(16, 11)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantStats := gridbb.SolveSequential(tc.factory(), gridbb.Infinity)
			if wantStats.Explored == 0 {
				t.Fatal("degenerate instance: sequential baseline explored nothing")
			}

			res, err := gridbb.Solve(tc.factory(), gridbb.Options{
				Workers:           3,
				ProblemFactory:    tc.factory,
				UpdatePeriodNodes: 512,
			})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Best.Cost != want.Cost {
				t.Fatalf("farmer runtime found %d, sequential %d", res.Best.Cost, want.Cost)
			}
			assertLeafCost(t, tc.factory(), res.Best)

			p2p, err := gridbb.SolveP2P(tc.factory, gridbb.P2POptions{Peers: 3})
			if err != nil {
				t.Fatalf("SolveP2P: %v", err)
			}
			if p2p.Best.Cost != want.Cost {
				t.Fatalf("p2p runtime found %d, sequential %d", p2p.Best.Cost, want.Cost)
			}
			assertLeafCost(t, tc.factory(), p2p.Best)
		})
	}
}

// assertLeafCost walks the problem down the solution's rank path and
// re-prices the leaf: a cost without a matching leaf would be an incumbent
// fabricated by bookkeeping rather than found by exploration.
func assertLeafCost(t *testing.T, p gridbb.Problem, sol gridbb.Solution) {
	t.Helper()
	if !sol.Valid() {
		t.Fatalf("solution invalid: %+v", sol)
	}
	depth := p.Shape().Depth()
	if len(sol.Path) != depth {
		t.Fatalf("path length %d, tree depth %d", len(sol.Path), depth)
	}
	p.Reset()
	for d, r := range sol.Path {
		if r < 0 || r >= p.Shape().Branching(d) {
			t.Fatalf("rank %d out of range at depth %d", r, d)
		}
		p.Descend(r)
	}
	if got := p.Cost(); got != sol.Cost {
		t.Fatalf("path evaluates to %d, solution claims %d", got, sol.Cost)
	}
}
