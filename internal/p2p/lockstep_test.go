package p2p

import (
	"testing"

	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/tsp"
)

// TestLockstepSolvesAllDomains: the deterministic driver proves the
// sequential optimum on every problem family, with guaranteed steals at
// every concurrency level — no scheduling luck involved.
func TestLockstepSolvesAllDomains(t *testing.T) {
	cases := []struct {
		name    string
		factory func() bb.Problem
	}{
		{"flowshop", func() bb.Problem {
			return flowshop.NewProblem(flowshop.Taillard(10, 6, 3), flowshop.BoundOneMachine, flowshop.PairsAll)
		}},
		{"tsp", func() bb.Problem { return tsp.NewProblem(tsp.RandomEuclidean(9, 100, 7)) }},
		{"qap", func() bb.Problem { return qap.NewProblem(qap.Random(7, 15, 9)) }},
		{"knapsack", func() bb.Problem { return knapsack.NewProblem(knapsack.Random(16, 21)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := bb.Solve(tc.factory(), bb.Infinity)
			for _, peers := range []int{2, 4} {
				res, ok := SolveLockstep(tc.factory, Options{Peers: peers, Seed: 5, StepBudget: 300}, 0)
				if !ok {
					t.Fatalf("peers=%d: did not terminate", peers)
				}
				if res.Best.Cost != want.Cost {
					t.Fatalf("peers=%d: best %d, want %d", peers, res.Best.Cost, want.Cost)
				}
				if res.Steals == 0 {
					t.Fatalf("peers=%d: no steals in a lockstep ring", peers)
				}
			}
		})
	}
}

// TestLockstepDeterministic: equal seeds produce identical event traces and
// identical per-peer work; a different seed produces a different trace.
func TestLockstepDeterministic(t *testing.T) {
	factory := func() bb.Problem {
		return flowshop.NewProblem(flowshop.Taillard(10, 6, 3), flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	run := func(seed int64) ([]LockstepEvent, Result) {
		l := NewLockstep(factory, Options{Peers: 4, Seed: seed, StepBudget: 300})
		for !l.Sweep() {
		}
		return l.Events(), l.Result()
	}
	ev1, res1 := run(9)
	ev2, res2 := run(9)
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		a, b := ev1[i], ev2[i]
		if a.Sweep != b.Sweep || a.Kind != b.Kind || a.From != b.From || a.To != b.To || !a.Interval.Equal(b.Interval) {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a, b)
		}
	}
	for i := range res1.PerPeer {
		if res1.PerPeer[i] != res2.PerPeer[i] {
			t.Fatalf("per-peer work differs: %v vs %v", res1.PerPeer, res2.PerPeer)
		}
	}
	ev3, _ := run(10)
	same := len(ev1) == len(ev3)
	if same {
		for i := range ev1 {
			if ev1[i].Kind != ev3[i].Kind || ev1[i].From != ev3[i].From || ev1[i].To != ev3[i].To {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestLockstepSinglePeer degenerates to the sequential engine exactly.
func TestLockstepSinglePeer(t *testing.T) {
	factory := func() bb.Problem { return knapsack.NewProblem(knapsack.Random(14, 3)) }
	want, wantStats := bb.Solve(factory(), bb.Infinity)
	res, ok := SolveLockstep(factory, Options{Peers: 1}, 0)
	if !ok {
		t.Fatal("did not terminate")
	}
	if res.Best.Cost != want.Cost || res.Stats.Explored != wantStats.Explored {
		t.Fatalf("got cost %d / %d nodes, want %d / %d", res.Best.Cost, res.Stats.Explored, want.Cost, wantStats.Explored)
	}
	if res.Steals != 0 || res.StealAttempts != 0 {
		t.Fatalf("single peer stole: %d/%d", res.Steals, res.StealAttempts)
	}
}

// TestLockstepBlockedRingStillTerminates: with every link blocked the ring
// cannot share work or pass the token — but once the hook unblocks (here:
// after peer 0 finishes everything alone) the token must still complete a
// round and terminate. Guards against the partition hook wedging the
// termination protocol permanently.
func TestLockstepBlockedRingStillTerminates(t *testing.T) {
	factory := func() bb.Problem { return knapsack.NewProblem(knapsack.Random(14, 3)) }
	l := NewLockstep(factory, Options{Peers: 3, Seed: 1, StepBudget: 100})
	blocked := true
	l.Blocked = func(a, b int) bool { return blocked }
	for i := 0; i < 1000 && !l.Sweep(); i++ {
		if l.Remaining(0).IsEmpty() {
			blocked = false // partition heals once the work is done
		}
	}
	if !l.Terminated() {
		t.Fatal("ring never terminated after the partition healed")
	}
	res := l.Result()
	want, _ := bb.Solve(factory(), bb.Infinity)
	if res.Best.Cost != want.Cost {
		t.Fatalf("best %d, want %d", res.Best.Cost, want.Cost)
	}
	if res.Steals != 0 {
		t.Fatalf("%d steals crossed a fully blocked ring", res.Steals)
	}
}

// TestP2PWorkDistribution: with enough peers and a real workload, more
// than one peer ends up exploring (the steal mechanism spreads work). The
// lockstep driver makes this deterministic — among concurrent peers
// (gridbb.SolveP2P) the same property is a coin flip on a loaded
// single-core host.
func TestP2PWorkDistribution(t *testing.T) {
	ins := flowshop.Taillard(12, 10, 5)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	res, ok := SolveLockstep(factory, Options{Peers: 4, Seed: 11, StepBudget: 200}, 0)
	if !ok {
		t.Fatal("lockstep ring did not terminate")
	}
	if res.Steals == 0 {
		t.Fatalf("no steals happened: %v", res.PerPeer)
	}
	working := 0
	for _, n := range res.PerPeer {
		if n > 0 {
			working++
		}
	}
	if working < 2 {
		t.Fatalf("only %d peers explored anything: %v", working, res.PerPeer)
	}
}
