package gridbb

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/flowshop"
	"repro/internal/knapsack"
	"repro/internal/tsp"
)

// TestSolveFlowshop: the public entry point solves a flowshop instance in
// parallel and proves the sequential optimum.
func TestSolveFlowshop(t *testing.T) {
	ins := flowshop.Taillard(12, 10, 5)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := SolveSequential(factory(), Infinity)

	res, err := Solve(factory(), Options{Workers: 6, ProblemFactory: factory, UpdatePeriodNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("parallel best %d, sequential %d", res.Best.Cost, want.Cost)
	}
	if res.Counters.WorkAllocations == 0 || res.Counters.WorkerCheckpoints == 0 {
		t.Fatalf("no protocol traffic recorded: %+v", res.Counters)
	}
}

// TestSolveWithInitialUpper: priming with the known optimum still proves it
// (the paper's run 2 starts from 3680 and proves 3679 — here the prime IS
// the optimum, so no improving leaf exists and the initial solution wins).
func TestSolveWithInitialUpper(t *testing.T) {
	ins := flowshop.Taillard(10, 6, 21)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := SolveSequential(factory(), Infinity)
	perm, err := flowshop.PermutationOfPath(ins.Jobs, want.Path)
	if err != nil {
		t.Fatal(err)
	}
	path, err := flowshop.PathOfPermutation(ins.Jobs, perm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(factory(), Options{
		Workers: 3, ProblemFactory: factory,
		InitialUpper: want.Cost, InitialPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("primed resolution best %d, want %d", res.Best.Cost, want.Cost)
	}
}

// TestSolveRequiresFactory: multi-worker without a factory is rejected
// (Problem state machines are single-threaded).
func TestSolveRequiresFactory(t *testing.T) {
	p := knapsack.NewProblem(knapsack.Random(8, 1))
	if _, err := Solve(p, Options{Workers: 2}); err == nil {
		t.Fatal("expected an error without ProblemFactory")
	}
}

// TestSolveSingleWorkerNoFactory: one worker may reuse the given problem.
func TestSolveSingleWorkerNoFactory(t *testing.T) {
	ins := knapsack.Random(14, 3)
	want, _ := SolveSequential(knapsack.NewProblem(ins), Infinity)
	res, err := Solve(knapsack.NewProblem(ins), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("best %d, want %d", res.Best.Cost, want.Cost)
	}
}

// TestSolveWritesCheckpoints: with a checkpoint dir the farmer leaves a
// readable final snapshot recording the completed state, in the default
// namespace of the resolution's one-job table.
func TestSolveWritesCheckpoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	ins := tsp.RandomEuclidean(8, 50, 2)
	factory := func() Problem { return tsp.NewProblem(ins) }
	res, err := Solve(factory(), Options{
		Workers: 2, ProblemFactory: factory,
		CheckpointDir: dir, CheckpointPeriod: time.Hour, // final snapshot only
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.NewStore(filepath.Join(dir, checkpoint.DefaultNamespace))
	if err != nil {
		t.Fatal(err)
	}
	if !store.Exists() {
		t.Fatal("no checkpoint written")
	}
	snap, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Intervals) != 0 {
		t.Fatalf("final snapshot still has %d intervals", len(snap.Intervals))
	}
	if snap.BestCost != res.Best.Cost {
		t.Fatalf("snapshot best %d, result best %d", snap.BestCost, res.Best.Cost)
	}
}

// TestSolveReusedCheckpointDirStartsFresh: two resolutions of different
// instances of one shape over one checkpoint directory each prove their
// own optimum. The first run's final snapshot (an empty INTERVALS and its
// incumbent) must not be resumed by the second, which would finish at
// once with the first instance's answer.
func TestSolveReusedCheckpointDirStartsFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	var bests []int64
	for _, seed := range []int64{21, 22} {
		ins := flowshop.Taillard(10, 6, seed)
		factory := func() Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		}
		want, _ := SolveSequential(factory(), Infinity)
		res, err := Solve(factory(), Options{
			Workers: 2, ProblemFactory: factory,
			CheckpointDir: dir, CheckpointPeriod: time.Hour, // final snapshot only
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Cost != want.Cost {
			t.Fatalf("seed %d over a reused dir: best %d, sequential %d", seed, res.Best.Cost, want.Cost)
		}
		if res.Counters.WorkAllocations == 0 {
			t.Fatalf("seed %d allocated no work: resumed a finished snapshot", seed)
		}
		bests = append(bests, want.Cost)
	}
	if bests[0] == bests[1] {
		t.Fatalf("both instances have optimum %d: the test cannot tell them apart", bests[0])
	}
}

// TestFoldUnfoldFacade exercises the re-exported operators.
func TestFoldUnfoldFacade(t *testing.T) {
	p := knapsack.NewProblem(knapsack.Random(6, 9))
	nb := NewNumbering(p)
	iv := nb.RootRange()
	nodes := Unfold(nb, iv)
	back, err := Fold(nb, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(iv) {
		t.Fatalf("fold(unfold(root)) = %v, want %v", back, iv)
	}
}

// TestSolveP2PFacade: the decentralized entry point proves the same optimum
// as the farmer-worker one.
func TestSolveP2PFacade(t *testing.T) {
	ins := flowshop.Taillard(10, 6, 13)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := SolveSequential(factory(), Infinity)
	res, err := SolveP2P(factory, P2POptions{Peers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("p2p best %d, want %d", res.Best.Cost, want.Cost)
	}
}

// TestSolveMulticoreWorkers: the public Cores knob runs the intra-worker
// shard engine under the same farmer protocol and proves the same optimum.
func TestSolveMulticoreWorkers(t *testing.T) {
	ins := flowshop.Taillard(11, 6, 9)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := SolveSequential(factory(), Infinity)
	res, err := Solve(factory(), Options{Workers: 2, Cores: 3, ProblemFactory: factory, UpdatePeriodNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("multicore best %d, sequential %d", res.Best.Cost, want.Cost)
	}
	if _, err := Solve(factory(), Options{Workers: 1, Cores: 2}); err == nil {
		t.Fatal("Cores>1 without a factory should be rejected")
	}
}

// TestSolveTreeCoordination: the public Subtrees knob coordinates the
// workers through a 2-level farmer tree (DESIGN.md §9) and proves the same
// optimum, with the root aggregating the whole tree's statistics.
func TestSolveTreeCoordination(t *testing.T) {
	ins := flowshop.Taillard(11, 6, 9)
	factory := func() Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := SolveSequential(factory(), Infinity)
	res, err := Solve(factory(), Options{
		Workers: 4, Subtrees: 2, ProblemFactory: factory, UpdatePeriodNodes: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost {
		t.Fatalf("tree best %d, sequential %d", res.Best.Cost, want.Cost)
	}
	if !res.Best.Valid() {
		t.Fatal("tree optimum lost its leaf path on the way to the root")
	}
	// The root's counters must aggregate the whole tree exactly:
	// sub-farmers ship their fleets' exploration deltas with every fold,
	// and the terminal flush covers checkpoints that landed after the
	// final fold. In-process nothing is lost, so the root total equals
	// the sum of the workers' engine counters.
	var workerTotal int64
	for _, w := range res.PerWorker {
		workerTotal += w.Stats.Explored
	}
	if res.Counters.ExploredNodes != workerTotal {
		t.Fatalf("root counters aggregate %d explored nodes, workers explored %d — fleet statistics leaked between folds",
			res.Counters.ExploredNodes, workerTotal)
	}
}
