package gridsim

import (
	"testing"

	"repro/internal/bb"
	"repro/internal/flowshop"
)

// TestSmallTreesTerminate holds the tree's liveness at small scale. There
// the root's duplication threshold is a handful of leaves, and an inner
// threshold that floored to 1 let the partitioning operator split one-leaf
// crumbs: the holder kept nothing, and the crumb moved from requester to
// requester for ever, so both shapes below ran out of ticks unfinished.
// With the inner threshold floored at the default duplication threshold
// they prove the optimum (in 602 and 214 ticks).
func TestSmallTreesTerminate(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded simulator: nothing for the race detector")
	}
	for _, tc := range []struct {
		jobs, machines, subtrees int
	}{
		{jobs: 10, machines: 6, subtrees: 4},
		{jobs: 11, machines: 8, subtrees: 8},
	} {
		ins := flowshop.Taillard(tc.jobs, tc.machines, 3)
		factory := func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		}
		seq, stats := bb.Solve(factory(), bb.Infinity)
		cfg := MassiveTreeScenario(1, stats.Explored, 0.05, 120, tc.subtrees)
		cfg.InitialUpper = seq.Cost + 1
		cfg.MaxTicks = 6000
		res, err := New(cfg, factory).Run()
		switch {
		case err != nil:
			t.Fatalf("%dx%d/%d: %v", tc.jobs, tc.machines, tc.subtrees, err)
		case !res.Finished:
			t.Errorf("%dx%d/%d: unfinished after %d ticks, holding %d (optimum %d)",
				tc.jobs, tc.machines, tc.subtrees, res.Ticks, res.Best.Cost, seq.Cost)
		case res.Best.Cost != seq.Cost:
			t.Errorf("%dx%d/%d: proved %d, sequential optimum is %d", tc.jobs, tc.machines, tc.subtrees, res.Best.Cost, seq.Cost)
		default:
			t.Logf("%dx%d/%d: optimum %d in %d ticks", tc.jobs, tc.machines, tc.subtrees, seq.Cost, res.Ticks)
		}
	}
}
