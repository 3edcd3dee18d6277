package gridsim

import (
	"sync"
	"testing"

	"repro/internal/bb"
	"repro/internal/flowshop"
)

// TestMassiveGridScenario runs the massive-grid scenario: the full Table 1
// pool topped up to 2000 processors under availability churn, driven
// through the real farmer and real worker sessions. It is the fleet-size
// end of the paper's scalability claim — one coordinator serving ~1600
// concurrent workers while the workers, not the farmer, do essentially all
// the work — and it is only tractable as a unit test because the selection
// index answers each of the tens of thousands of requests in O(log W)
// (before PR 4 this exact run spent most of its real wall clock inside the
// farmer's O(W) scans; see BENCH_pr4.json).
//
// The farmer-exploitation bound is looser than the paper's 1.7 % because
// the replay compresses 25 days into two 20-minute "days": per unit of
// work the message structure is the same, but the per-wall-second message
// rate — the numerator of the rate — is ~40× the paper's. What the
// assertion pins is the structural claim: even at full fleet size and 40×
// the paper's message pressure, the coordinator stays far from
// saturation.
func TestMassiveGridScenario(t *testing.T) {
	run := massiveFlat()
	res := run.res
	if run.err != nil {
		t.Fatal(run.err)
	}
	if !res.Finished {
		t.Fatalf("massive grid did not finish in %d ticks", res.Ticks)
	}
	if res.Best.Cost != run.optimum {
		t.Fatalf("massive grid proved %d, sequential optimum is %d", res.Best.Cost, run.optimum)
	}
	if res.Table2.MaxWorkers < 1500 {
		t.Errorf("peak concurrency %d, want ≥ 1500 (the scenario exists for fleet scale)", res.Table2.MaxWorkers)
	}
	if res.Table2.AvgWorkers < 500 {
		t.Errorf("average concurrency %.0f, want ≥ 500", res.Table2.AvgWorkers)
	}
	if res.Table2.FarmerExploitation >= 0.10 {
		t.Errorf("farmer exploitation %.1f%%, want < 10%% at full fleet (paper: 1.7%% at 1/40 the message pressure)",
			res.Table2.FarmerExploitation*100)
	}
	if res.Table2.WorkerExploitation <= 0.90 {
		t.Errorf("worker exploitation %.1f%%, want > 90%%", res.Table2.WorkerExploitation*100)
	}
	if res.Table2.RedundantRate >= 0.15 {
		t.Errorf("redundant rate %.1f%%, want < 15%%", res.Table2.RedundantRate*100)
	}
	t.Logf("ticks=%d maxW=%d avgW=%.0f farmer=%.2f%% worker=%.2f%% allocations=%d redundant=%.2f%%",
		res.Ticks, res.Table2.MaxWorkers, res.Table2.AvgWorkers,
		res.Table2.FarmerExploitation*100, res.Table2.WorkerExploitation*100,
		res.Table2.WorkAllocations, res.Table2.RedundantRate*100)
}

// massiveFlatRun is one run of the massive-grid scenario with the
// sequential optimum it must prove.
type massiveFlatRun struct {
	res     Result
	optimum int64
	err     error
}

// massiveFlat runs the massive-grid scenario once per test binary:
// TestMassiveGridScenario checks its Table 2 claims and TestSimGolden pins
// its exact counts, on the same run.
var massiveFlat = sync.OnceValue(func() massiveFlatRun {
	ins := flowshop.Taillard(12, 10, 5) // ~130k sequential nodes
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	seq, _ := bb.Solve(factory(), bb.Infinity)

	cfg := MassiveScenario(1, 130_000, 2.0)
	cfg.InitialUpper = seq.Cost + 1 // run-2 protocol: primed one above the optimum
	cfg.MaxTicks = 30_000
	res, err := New(cfg, factory).Run()
	return massiveFlatRun{res: res, optimum: seq.Cost, err: err}
})

// TestMassiveTreeGridScenario is the order-of-magnitude step past the
// indexed farmer: the Table 1 pool topped up to 10,000 processors, run
// twice at equal load — once under the flat single farmer, once under a
// 2-level tree of 8 sub-farmers. Both must prove the optimum; the
// comparison pins the PR's coordination claim: the tree's root serves only
// sub-farmer folds and refills, so its exploitation rate must land far
// below the flat farmer's, which at 10k workers and ~40× the paper's
// per-wall-second message pressure is pushed toward saturation. (The flat
// run is the control — the claim is relative, at identical pool, seed,
// availability and calibration.)
func TestMassiveTreeGridScenario(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded simulator at 10k scale: nothing for the race detector, minutes of instrumented bignum arithmetic (see race_on_test.go)")
	}
	ins := flowshop.Taillard(13, 10, 3) // ~285k sequential nodes
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	seq, _ := bb.Solve(factory(), bb.Infinity)

	run := func(subtrees int) Result {
		t.Helper()
		cfg := MassiveTreeScenario(1, 285_000, 1.5, 10_000, subtrees)
		cfg.InitialUpper = seq.Cost + 1 // run-2 protocol: primed one above the optimum
		cfg.MaxTicks = 30_000
		res, err := New(cfg, factory).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Finished {
			t.Fatalf("subtrees=%d: did not finish in %d ticks", subtrees, res.Ticks)
		}
		if res.Best.Cost != seq.Cost {
			t.Fatalf("subtrees=%d: proved %d, sequential optimum is %d", subtrees, res.Best.Cost, seq.Cost)
		}
		return res
	}

	tree := run(8)
	flat := run(0)

	if tree.Table2.MaxWorkers < 6000 {
		t.Errorf("tree peak concurrency %d, want ≥ 6000 (the scenario exists for 10k-fleet scale)", tree.Table2.MaxWorkers)
	}
	if tree.Table2.FarmerExploitation >= flat.Table2.FarmerExploitation {
		t.Errorf("tree root exploitation %.2f%% not below the flat farmer's %.2f%% at equal load",
			tree.Table2.FarmerExploitation*100, flat.Table2.FarmerExploitation*100)
	}
	// Absolute root-utilization ceiling. 10% rather than the pre-PR-8 5%:
	// the endgame protocol (steal hints, low-water refills, crumb
	// duplication) is deliberately chattier at the root, and the whole run
	// is now ~4× shorter, so the fixed per-message cost divides by a much
	// smaller wall clock. The measured value (~7%) is still ~5× below the
	// flat farmer's, which the relative assertion above pins.
	if tree.Table2.FarmerExploitation >= 0.10 {
		t.Errorf("tree root exploitation %.2f%%, want < 10%% — the root must stay far from saturation at 10k workers",
			tree.Table2.FarmerExploitation*100)
	}
	if tree.Table2.WorkerExploitation <= 0.90 {
		t.Errorf("tree worker exploitation %.1f%%, want > 90%%", tree.Table2.WorkerExploitation*100)
	}
	// The PR-8 endgame acceptance gate: the tree's virtual resolution time
	// must be within 1.4× the flat farmer's at equal load (it was ~2.2×
	// before the crumb-endgame work; see BENCH_pr8.json for the recorded
	// run). The tree historically lost the tail twice over — every refill
	// re-descended from the tree root on the workers' dime, and root-scale
	// crumbs were duplicated across whole sub-fleets.
	if limit := flat.Ticks * 14 / 10; tree.Ticks > limit {
		t.Errorf("tree resolved in %d ticks vs flat %d (%.2fx), want ≤ 1.4x",
			tree.Ticks, flat.Ticks, float64(tree.Ticks)/float64(flat.Ticks))
	}
	t.Logf("tree: ticks=%d maxW=%d avgW=%.0f root=%.3f%% worker=%.2f%% redundant=%.2f%%",
		tree.Ticks, tree.Table2.MaxWorkers, tree.Table2.AvgWorkers,
		tree.Table2.FarmerExploitation*100, tree.Table2.WorkerExploitation*100, tree.Table2.RedundantRate*100)
	t.Logf("flat: ticks=%d maxW=%d avgW=%.0f farmer=%.3f%% worker=%.2f%% redundant=%.2f%%",
		flat.Ticks, flat.Table2.MaxWorkers, flat.Table2.AvgWorkers,
		flat.Table2.FarmerExploitation*100, flat.Table2.WorkerExploitation*100, flat.Table2.RedundantRate*100)
}
