package worker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/transport"
	"repro/internal/tsp"
)

func testInstance(jobs, machines int, seed int64) *flowshop.Instance {
	return flowshop.Taillard(jobs, machines, seed)
}

func newFarmerFor(p bb.Problem, opts ...farmer.Option) *farmer.Farmer {
	nb := core.NewNumbering(p.Shape())
	return farmer.New(nb.RootRange(), opts...)
}

// TestSingleWorkerSolves: one session driven by Advance solves a flowshop
// instance to the sequential optimum and terminates.
func TestSingleWorkerSolves(t *testing.T) {
	ins := testInstance(8, 4, 42)
	oracleP := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	want, _ := bb.Solve(oracleP, bb.Infinity)

	p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	f := newFarmerFor(p)
	s := NewSession(Config{ID: "w1", Power: 10, UpdatePeriodNodes: 500}, f, p)
	for {
		_, finished, err := s.Advance(1000)
		if err != nil {
			t.Fatal(err)
		}
		if finished {
			break
		}
	}
	if got := f.Best(); got.Cost != want.Cost {
		t.Fatalf("grid best %d, sequential optimum %d", got.Cost, want.Cost)
	}
	if !f.Done() {
		t.Fatal("farmer not done after worker finished")
	}
	if s.Messages.Updates == 0 {
		t.Fatal("worker never checkpointed")
	}
}

// TestManyWorkersMatchSequential: several concurrent goroutine workers find
// the sequential optimum, with real load balancing traffic.
func TestManyWorkersMatchSequential(t *testing.T) {
	ins := testInstance(12, 10, 5)
	oracleP := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	want, _ := bb.Solve(oracleP, bb.Infinity)

	f := newFarmerFor(oracleP)
	const n = 8
	// Acquire every worker's first interval synchronously before racing:
	// a zero-budget Advance requests work without exploring. Without this
	// barrier the test depends on goroutine scheduling — the engine is
	// fast enough to finish the whole tree before a late-starting peer
	// issues its first request.
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		cfg := Config{
			ID:                transport.WorkerID(string(rune('a' + i))),
			Power:             int64(1 + i%3),
			UpdatePeriodNodes: 200,
			StepSize:          100,
		}
		sessions[i] = NewSession(cfg, f, p)
		if _, _, err := sessions[i].Advance(0); err != nil {
			t.Fatalf("worker %d: first request: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sessions[i]
			for {
				_, finished, err := s.Advance(s.cfg.StepSize)
				if err != nil || finished {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := f.Best(); got.Cost != want.Cost {
		t.Fatalf("grid best %d, sequential optimum %d", got.Cost, want.Cost)
	}
	c := f.Counters()
	if c.WorkAllocations < int64(n) {
		t.Fatalf("allocations = %d, want at least %d", c.WorkAllocations, n)
	}
	// The optimal permutation must decode correctly.
	best := f.Best()
	perm, err := flowshop.PermutationOfPath(ins.Jobs, best.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Makespan(perm) != best.Cost {
		t.Fatalf("decoded permutation cost %d != reported %d", ins.Makespan(perm), best.Cost)
	}
}

// TestWorkerCrashRecovery: workers that die mid-exploration lose nothing —
// the lease mechanism orphans their last checkpointed interval and a
// replacement worker finishes the job; the optimum is still found with
// proof.
func TestWorkerCrashRecovery(t *testing.T) {
	ins := testInstance(12, 10, 5)
	oracleP := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	want, _ := bb.Solve(oracleP, bb.Infinity)

	var vnow int64
	clock := func() int64 { return vnow }
	f := newFarmerFor(oracleP, farmer.WithClock(clock), farmer.WithLeaseTTL(time.Second))

	// Crashy worker: explores a bit with frequent checkpoints, then
	// vanishes without deregistering.
	crashP := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	crashy := NewSession(Config{ID: "crashy", Power: 5, UpdatePeriodNodes: 50}, f, crashP)
	for i := 0; i < 20; i++ {
		if _, finished, err := crashy.Advance(100); err != nil || finished {
			t.Fatalf("crashy finished prematurely (err=%v)", err)
		}
	}
	// Time passes beyond the lease; the farmer presumes it dead.
	vnow += int64(2 * time.Second)
	f.ExpireNow()

	// A fresh worker completes the resolution.
	p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	s := NewSession(Config{ID: "rescuer", Power: 5, UpdatePeriodNodes: 500}, f, p)
	for {
		_, finished, err := s.Advance(5000)
		if err != nil {
			t.Fatal(err)
		}
		if finished {
			break
		}
	}
	if got := f.Best(); got.Cost != want.Cost {
		t.Fatalf("after crash recovery best = %d, want %d", got.Cost, want.Cost)
	}
}

// TestSolutionSharingAcrossWorkers: an improvement found by one worker
// prunes in another (the second worker adopts the pushed bound on its next
// exchange).
func TestSolutionSharingAcrossWorkers(t *testing.T) {
	ins := testInstance(12, 10, 5)
	p1 := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	f := newFarmerFor(p1)

	s1 := NewSession(Config{ID: "w1", Power: 1, UpdatePeriodNodes: 100}, f, p1)
	// w1 explores until it has pushed at least one solution.
	for f.Best().Cost == bb.Infinity {
		if _, finished, err := s1.Advance(200); err != nil {
			t.Fatal(err)
		} else if finished {
			break
		}
	}
	shared := f.Best().Cost
	if shared == bb.Infinity {
		t.Fatal("no solution shared")
	}
	// A joining worker is primed with the shared bound at assignment.
	p2 := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	s2 := NewSession(Config{ID: "w2", Power: 1, UpdatePeriodNodes: 100}, f, p2)
	if _, _, err := s2.Advance(1); err != nil {
		t.Fatal(err)
	}
	if got := s2.Best().Cost; got > shared {
		t.Fatalf("joining worker best %d, want <= shared %d", got, shared)
	}
}

// TestRunContextCancel: both goroutine runtimes return promptly on context
// cancellation — within 100 ms, even with more shards than processors —
// and leave gracefully: one final fold, so the farmer has been told of
// every node the worker explored and nothing is re-explored.
func TestRunContextCancel(t *testing.T) {
	// 20 jobs: a proof this bound needs hours for, so the worker is
	// mid-exploration at the cancel on any machine — the window below is
	// how much it explores before leaving, not a race against the proof.
	ins := testInstance(20, 10, 5)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	for _, tc := range []struct{ cores, procs int }{{1, 0}, {3, 0}, {3, 1}} {
		name := fmt.Sprintf("cores=%d", tc.cores)
		if tc.procs > 0 {
			name += fmt.Sprintf(",GOMAXPROCS=%d", tc.procs)
		}
		t.Run(name, func(t *testing.T) {
			if tc.procs > 0 {
				// Shards on every processor: the protocol goroutine must
				// still get to run, take the shard locks and fold.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			f := newFarmerFor(factory())
			ctx, cancel := context.WithCancel(context.Background())
			type outcome struct {
				res Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				// The default update period is rarely reached in the
				// window: the leave is what folds.
				res, err := RunParallel(ctx, Config{ID: "w", Power: 1, StepSize: 100, Cores: tc.cores}, f, factory)
				done <- outcome{res, err}
			}()
			for f.Counters().WorkAllocations == 0 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			cancel()
			cancelled := time.Now()
			select {
			case out := <-done:
				if took := time.Since(cancelled); took > 100*time.Millisecond {
					t.Fatalf("worker took %v to return after cancel, want <= 100ms", took)
				}
				if !errors.Is(out.err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", out.err)
				}
				if got, want := f.Counters().ExploredNodes, out.res.Stats.Explored; got != want {
					t.Fatalf("farmer was told of %d nodes, worker explored %d", got, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("worker did not stop on cancellation")
			}
		})
	}
}

// TestTSPWorkers: the identical runtime solves a different problem domain
// unchanged (the coding is problem-independent).
func TestTSPWorkers(t *testing.T) {
	ins := tsp.RandomEuclidean(9, 100, 31)
	oracleP := tsp.NewProblem(ins)
	want, _ := bb.Solve(oracleP, bb.Infinity)

	f := newFarmerFor(oracleP)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := tsp.NewProblem(ins)
			cfg := Config{ID: transport.WorkerID(string(rune('A' + i))), Power: 1, UpdatePeriodNodes: 300}
			if _, err := Run(context.Background(), cfg, f, p); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	best := f.Best()
	if best.Cost != want.Cost {
		t.Fatalf("grid TSP best %d, sequential optimum %d", best.Cost, want.Cost)
	}
	tour, err := tsp.TourOfPath(ins.N, best.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ins.TourLength(tour) != best.Cost {
		t.Fatalf("decoded tour length %d != reported %d", ins.TourLength(tour), best.Cost)
	}
}

// TestSetPower: the reported power follows SetPower and rejects
// non-positive values.
func TestSetPower(t *testing.T) {
	ins := testInstance(6, 3, 1)
	p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	s := NewSession(Config{ID: "w", Power: 5}, newFarmerFor(p), p)
	if s.Power() != 5 {
		t.Fatalf("initial power = %d", s.Power())
	}
	s.SetPower(42)
	if s.Power() != 42 {
		t.Fatalf("power after SetPower = %d", s.Power())
	}
	s.SetPower(0)
	s.SetPower(-3)
	if s.Power() != 42 {
		t.Fatalf("non-positive power accepted: %d", s.Power())
	}
}

// TestAutoPowerRun: Run with AutoPower completes correctly (the calibration
// path must not disturb the protocol).
func TestAutoPowerRun(t *testing.T) {
	ins := testInstance(10, 6, 77)
	oracleP := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	want, _ := bb.Solve(oracleP, bb.Infinity)
	f := newFarmerFor(oracleP)
	p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	res, err := Run(context.Background(), Config{ID: "auto", Power: 1, AutoPower: true, UpdatePeriodNodes: 500}, f, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost != want.Cost && f.Best().Cost != want.Cost {
		t.Fatalf("auto-power run best %d, want %d", f.Best().Cost, want.Cost)
	}
}

// TestCheckpointNoop: forcing a checkpoint without work or after the end is
// a safe no-op.
func TestCheckpointNoop(t *testing.T) {
	ins := testInstance(6, 3, 2)
	p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	s := NewSession(Config{ID: "w", Power: 1}, newFarmerFor(p), p)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("idle checkpoint: %v", err)
	}
	for {
		if _, finished, err := s.Advance(1 << 20); err != nil {
			t.Fatal(err)
		} else if finished {
			break
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("post-finish checkpoint: %v", err)
	}
}
