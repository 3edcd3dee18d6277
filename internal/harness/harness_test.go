package harness

import (
	"math/big"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/interval"
	"repro/internal/knapsack"
	"repro/internal/transport"
)

// TestScenarioMatrixConformance runs every named scenario twice: the first
// run must satisfy all three conformance invariants (interval partition,
// incumbent optimality, bounded rework) and actually exercise its faults;
// the second must produce a byte-identical event trace — the determinism
// contract that makes every harness failure reproducible.
func TestScenarioMatrixConformance(t *testing.T) {
	for _, sc := range GridScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			assertConformant(t, rep)

			again, err := Run(sc)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			assertSameTrace(t, rep.Trace, again.Trace)
		})
	}
}

func assertConformant(t *testing.T, rep Report) {
	t.Helper()
	for _, v := range rep.Violations {
		t.Errorf("%s: VIOLATION: %s", rep.Name, v)
	}
	if !rep.Finished {
		t.Fatalf("%s: did not finish (%d ticks)", rep.Name, rep.Ticks)
	}
	if rep.Best.Cost != rep.Baseline.Cost {
		t.Fatalf("%s: best %d != baseline %d", rep.Name, rep.Best.Cost, rep.Baseline.Cost)
	}
	t.Logf("%s: ticks=%d best=%d drops=%d dups=%d kills=%d rejoins=%d restarts=%d ckpts=%d overlap=%s rework=%s",
		rep.Name, rep.Ticks, rep.Best.Cost, rep.Drops, rep.Duplicates, rep.Kills,
		rep.Rejoins, rep.Restarts, rep.Checkpoints, rep.OverlapUnits, rep.ReworkBudget)
}

func assertSameTrace(t *testing.T, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at event %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}

// TestScenariosExerciseTheirFaults guards the scenarios against silently
// degenerating into quiet runs (e.g. after a retuning that makes the
// resolution finish before the first scheduled fault).
func TestScenariosExerciseTheirFaults(t *testing.T) {
	churny, err := Run(ChurnyGrid())
	if err != nil {
		t.Fatal(err)
	}
	if churny.Kills == 0 || churny.Rejoins == 0 {
		t.Errorf("churny-grid: kills=%d rejoins=%d — fault schedule never fired", churny.Kills, churny.Rejoins)
	}
	if churny.Drops == 0 || churny.Duplicates == 0 {
		t.Errorf("churny-grid: drops=%d duplicates=%d — message chaos never fired", churny.Drops, churny.Duplicates)
	}

	failover, err := Run(FarmerFailover())
	if err != nil {
		t.Fatal(err)
	}
	if failover.Restarts != len(FarmerFailover().FarmerRestarts) {
		t.Errorf("farmer-failover: %d restarts, scheduled %d", failover.Restarts, len(FarmerFailover().FarmerRestarts))
	}
	if failover.Checkpoints == 0 {
		t.Errorf("farmer-failover: no farmer checkpoints written")
	}
	if failover.DiskFaults == 0 {
		t.Errorf("farmer-failover: no checkpoint attempt hit the injected fsync EIO")
	}
	if failover.CorruptInjections == 0 {
		t.Errorf("farmer-failover: the on-disk corruption was never injected")
	}
	if failover.Counters.CorruptSnapshots == 0 || failover.Counters.FallbackLoads == 0 {
		t.Errorf("farmer-failover: corrupt=%d fallback=%d — the restart never exercised the *.prev fallback",
			failover.Counters.CorruptSnapshots, failover.Counters.FallbackLoads)
	}

	mc, err := Run(MulticoreChurn())
	if err != nil {
		t.Fatal(err)
	}
	if mc.Kills == 0 || mc.Rejoins == 0 {
		t.Errorf("multicore-churn: kills=%d rejoins=%d — fault schedule never fired", mc.Kills, mc.Rejoins)
	}
	if mc.Drops == 0 {
		t.Errorf("multicore-churn: drops=%d — reply chaos never fired", mc.Drops)
	}

	packed, err := Run(PackedGrid())
	if err != nil {
		t.Fatal(err)
	}
	if packed.Kills == 0 || packed.Rejoins == 0 {
		t.Errorf("packed-grid: kills=%d rejoins=%d — fault schedule never fired", packed.Kills, packed.Rejoins)
	}
	if packed.Drops == 0 {
		t.Errorf("packed-grid: drops=%d — reply chaos never fired", packed.Drops)
	}
	if packed.Counters.ExpiredOwners == 0 {
		t.Errorf("packed-grid: no lease ever expired — the heap sweep went unexercised")
	}
	if packed.Counters.WorkAllocations < 16 {
		t.Errorf("packed-grid: only %d allocations across 16 workers", packed.Counters.WorkAllocations)
	}

	tree, err := Run(TreeChurn())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(TreeChurn().SubRestarts) + len(TreeChurn().FarmerRestarts); tree.Restarts != want {
		t.Errorf("tree-churn: %d restarts, scheduled %d (sub + root)", tree.Restarts, want)
	}
	if tree.Kills == 0 || tree.Rejoins == 0 {
		t.Errorf("tree-churn: kills=%d rejoins=%d — fault schedule never fired", tree.Kills, tree.Rejoins)
	}
	if tree.Drops == 0 {
		t.Errorf("tree-churn: drops=%d — reply chaos never fired", tree.Drops)
	}
	if tree.Refills < int64(TreeChurn().Subtrees) {
		t.Errorf("tree-churn: only %d refills across %d subtrees — the tree never spread work", tree.Refills, TreeChurn().Subtrees)
	}
	if tree.Checkpoints == 0 {
		t.Errorf("tree-churn: no checkpoints written — the sub restarts restored nothing")
	}

	endgame, err := Run(EndgameChurn())
	if err != nil {
		t.Fatal(err)
	}
	if endgame.Refills < int64(EndgameChurn().Subtrees) {
		t.Errorf("endgame-churn: only %d refills across %d subtrees", endgame.Refills, EndgameChurn().Subtrees)
	}
	if endgame.LowWaterRefills == 0 {
		t.Errorf("endgame-churn: no low-water refill — the work-conserving pre-fetch never fired")
	}
	if endgame.Counters.GapCarves == 0 {
		t.Errorf("endgame-churn: no gap carve — no fold ever vouched an explored hole the root cut out")
	}
	if endgame.Counters.Duplications == 0 {
		t.Errorf("endgame-churn: no duplication — the crumb-sharing rule never fired")
	}

	stalled, err := Run(StalledCoordinator())
	if err != nil {
		t.Fatal(err)
	}
	if stalled.Timeouts == 0 {
		t.Errorf("stalled-coordinator: timeouts=%d — no call was ever black-holed", stalled.Timeouts)
	}
	if stalled.UpstreamTimeouts == 0 {
		t.Errorf("stalled-coordinator: the sub→root leg never saw a deadline failure")
	}
	if stalled.Drops != 0 {
		t.Errorf("stalled-coordinator: drops=%d — the scenario must fail only by deadline", stalled.Drops)
	}

	quiet, err := Run(QuietGrid())
	if err != nil {
		t.Fatal(err)
	}
	if quiet.OverlapUnits.Sign() != 0 {
		t.Errorf("quiet-grid: %s units re-covered without any fault", quiet.OverlapUnits)
	}
}

// treeDiskFault is TreeChurn with every second checkpoint sweep hitting an
// injected fsync EIO on every tier.
func treeDiskFault() Scenario {
	sc := TreeChurn()
	sc.Name = "tree-disk-fault"
	sc.DiskFaultEvery = 2
	return sc
}

// TestTreeDiskFaults: the disk-fault schedule reaches a tree's stores. The
// root and every sub-farmer store sit behind the fault seam, a faulty
// sweep fails on every tier (no generation rotates, no tracker advances),
// and the restarts that follow — root and sub-farmer alike — restore the
// older, still-whole generation with zero violations, byte for byte
// reproducibly.
func TestTreeDiskFaults(t *testing.T) {
	rep, err := Run(treeDiskFault())
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	assertConformant(t, rep)
	if rep.DiskFaults == 0 {
		t.Errorf("no checkpoint sweep hit the injected fsync EIO — the tree stores bypass the fault seam")
	}
	if rep.Checkpoints == 0 || rep.Restarts == 0 {
		t.Errorf("checkpoints=%d restarts=%d — the faulty sweeps were never put to a restore", rep.Checkpoints, rep.Restarts)
	}
	again, err := Run(treeDiskFault())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	assertSameTrace(t, rep.Trace, again.Trace)
}

// TestDifferentSeedsDiverge: the seed is the only source of variation, and
// it is a real one — two different seeds must produce different traces
// (otherwise the chaos machinery is decorative).
func TestDifferentSeedsDiverge(t *testing.T) {
	a := ChurnyGrid()
	b := ChurnyGrid()
	b.Seed++
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	assertConformant(t, ra)
	assertConformant(t, rb)
	if len(ra.Trace) == len(rb.Trace) {
		same := true
		for i := range ra.Trace {
			if ra.Trace[i] != rb.Trace[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

// lossyCoordinator is a deliberately broken coordinator: allocation drops
// half of the handed-out interval from its own bookkeeping (the lost-work
// bug class the stale-tail carve fixed in the farmer), and an update can be
// made to conjure new work out of thin air.
type lossyCoordinator struct {
	intervals []checkpoint.IntervalRecord
	loseOn    bool
	growOn    bool
}

func (c *lossyCoordinator) IntervalsSnapshot() []checkpoint.IntervalRecord {
	out := make([]checkpoint.IntervalRecord, len(c.intervals))
	copy(out, c.intervals)
	return out
}

func (c *lossyCoordinator) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	if c.loseOn && len(c.intervals) > 0 {
		iv := c.intervals[0].Interval
		mid := new(big.Int).Add(iv.A(), iv.B())
		mid.Rsh(mid, 1)
		left, _ := iv.SplitAt(interval.NumBig(mid))
		c.intervals[0].Interval = left // the right half silently vanishes
	}
	return transport.WorkReply{Status: transport.WorkAssigned, IntervalID: 1}, nil
}

func (c *lossyCoordinator) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	if c.growOn {
		c.intervals = append(c.intervals, checkpoint.IntervalRecord{
			ID: 99, Interval: interval.FromInt64(1000, 2000),
		})
	}
	return transport.UpdateReply{Known: true}, nil
}

func (c *lossyCoordinator) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	return transport.SolutionAck{}, nil
}

// TestTrackerCatchesBrokenCoordinators proves the conformance layer has
// teeth: a coordinator that loses work on allocation, or conjures work on
// update, or terminates with uncovered regions, is flagged.
func TestTrackerCatchesBrokenCoordinators(t *testing.T) {
	root := interval.FromInt64(0, 100)

	lossy := &lossyCoordinator{
		intervals: []checkpoint.IntervalRecord{{ID: 1, Interval: root.Clone()}},
		loseOn:    true,
	}
	tr := newTracker(root)
	tr.attach(lossy)
	tr.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
	if len(tr.violations) == 0 {
		t.Error("tracker accepted an allocation that lost half the interval")
	}

	growing := &lossyCoordinator{
		intervals: []checkpoint.IntervalRecord{{ID: 1, Interval: root.Clone()}},
		growOn:    true,
	}
	tr2 := newTracker(root)
	tr2.attach(growing)
	tr2.UpdateInterval(transport.UpdateRequest{Worker: "w", IntervalID: 1, Remaining: root})
	if len(tr2.violations) == 0 {
		t.Error("tracker accepted an update that grew INTERVALS")
	}

	empty := &lossyCoordinator{}
	tr3 := newTracker(root)
	tr3.attach(empty)
	tr3.covered.Add(interval.FromInt64(0, 40)) // 60 units never covered
	tr3.noteTermination()
	if len(tr3.violations) == 0 {
		t.Error("tracker accepted termination with unexplored gaps")
	}
}

// TestHarnessBaselineAgreement: the harness's sequential baseline matches a
// direct bb.Solve — guarding the oracle itself.
func TestHarnessBaselineAgreement(t *testing.T) {
	sc := QuietGrid()
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bb.Solve(knapsack.NewProblem(knapsack.Random(20, 5)), bb.Infinity)
	if rep.Baseline.Cost != want.Cost {
		t.Fatalf("baseline %d, direct solve %d", rep.Baseline.Cost, want.Cost)
	}
}

// TestRunRefusesDirWithSnapshots: a run over a Dir that already holds a
// snapshot is refused before it starts, because the job table would
// resume the snapshot and the oracle audits every job from its root
// range. The same Dir runs while it holds none.
func TestRunRefusesDirWithSnapshots(t *testing.T) {
	dir := t.TempDir()
	sc := QuietGrid()
	sc.Dir = dir
	if _, err := Run(sc); err != nil {
		t.Fatalf("an empty Dir: %v", err)
	}
	store, err := checkpoint.NewStore(filepath.Join(dir, checkpoint.DefaultNamespace))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(checkpoint.Snapshot{BestCost: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "already holds snapshots") {
		t.Fatalf("a Dir holding a snapshot: err %v, want a refusal", err)
	}
}
