package farmer

import (
	"math/big"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/interval"
	"repro/internal/transport"
)

// fixedClock is an injectable virtual clock.
type fixedClock struct{ now int64 }

func (c *fixedClock) fn() func() int64 { return func() int64 { return c.now } }

func newTestFarmer(totalLeaves int64, opts ...Option) (*Farmer, *fixedClock) {
	clk := &fixedClock{}
	opts = append(opts, WithClock(clk.fn()))
	return New(interval.FromInt64(0, totalLeaves), opts...), clk
}

// TestInitialAllocationGivesWholeTree: the first requester receives the
// entire root interval (orphans split at A, §4.2).
func TestInitialAllocationGivesWholeTree(t *testing.T) {
	f, _ := newTestFarmer(720)
	reply, err := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != transport.WorkAssigned {
		t.Fatalf("status = %v", reply.Status)
	}
	if !reply.Interval.Equal(interval.FromInt64(0, 720)) {
		t.Fatalf("assigned %v, want [0,720)", reply.Interval)
	}
	if c := f.Counters(); c.WorkAllocations != 1 || c.HandedOffOrphans != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestProportionalPartitioning: a second requester receives a share
// proportional to its power relative to the holder (§4.2).
func TestProportionalPartitioning(t *testing.T) {
	f, _ := newTestFarmer(1000)
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 30})
	r2, err := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Holder power 30, requester 10: holder keeps 3/4 = [0,750),
	// requester gets [750,1000).
	if !r2.Interval.Equal(interval.FromInt64(750, 1000)) {
		t.Fatalf("w2 assigned %v, want [750,1000)", r2.Interval)
	}
	// Holder learns of the shrink at its next update.
	up, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(100, 1000), Power: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Known {
		t.Fatal("holder interval unknown")
	}
	if !up.Interval.Equal(interval.FromInt64(100, 750)) {
		t.Fatalf("holder reconciled to %v, want [100,750)", up.Interval)
	}
}

// TestSelectionPicksLargestDonation: with two candidate intervals the
// selection operator picks the one producing the largest donated part, not
// the largest interval.
func TestSelectionPicksLargestDonation(t *testing.T) {
	f, _ := newTestFarmer(1000)
	// w1 holds [0,1000) with huge power; after w2 takes its share, we
	// have two intervals with different holder powers.
	f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 90})
	f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10}) // gets [900,1000)
	// Candidates for w3 (power 10): interval A = [0,900) holder power 90
	// → donated 900·10/100 = 90; interval B = [900,1000) holder power 10
	// → donated 100·10/20 = 50. A wins despite the bigger holder power.
	r3, err := f.RequestWork(transport.WorkRequest{Worker: "w3", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := r3.Interval.Len().Int64(); got != 90 {
		t.Fatalf("w3 received %v (len %d), want a 90-unit donation", r3.Interval, got)
	}
}

// TestThresholdDuplication: intervals below the threshold are duplicated,
// not split, and the coordinator keeps a single copy (§4.2).
func TestThresholdDuplication(t *testing.T) {
	f, _ := newTestFarmer(100, WithThreshold(interval.NumInt64(1000)))
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})
	r2, err := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Duplicated {
		t.Fatal("expected duplication below threshold")
	}
	if r2.IntervalID != r1.IntervalID {
		t.Fatalf("duplicate got id %d, holder id %d: must share one copy", r2.IntervalID, r1.IntervalID)
	}
	if !r2.Interval.Equal(r1.Interval) {
		t.Fatalf("duplicate interval %v != original %v", r2.Interval, r1.Interval)
	}
	if card, _ := f.Size(); card != 1 {
		t.Fatalf("INTERVALS cardinality = %d, want 1 (single copy)", card)
	}
	if c := f.Counters(); c.Duplications != 1 {
		t.Fatalf("duplications = %d", c.Duplications)
	}
}

// TestIntersectionAdvancesDuplicates: when one duplicate owner is ahead,
// the lagging owner's update jumps it forward (eq. 14 with A' > A), and the
// overlap is accounted as redundant.
func TestIntersectionAdvancesDuplicates(t *testing.T) {
	f, _ := newTestFarmer(100, WithThreshold(interval.NumInt64(1000)))
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})
	f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	// w1 advances to 60.
	f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(60, 100), Power: 10})
	// w2 reports only 40: its copy must be advanced to 60.
	up, err := f.UpdateInterval(transport.UpdateRequest{Worker: "w2", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(40, 100), Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Interval.Equal(interval.FromInt64(60, 100)) {
		t.Fatalf("lagging duplicate reconciled to %v, want [60,100)", up.Interval)
	}
	red := f.Redundancy()
	if red.RedundantUnits.Int64() != 40 {
		t.Fatalf("redundant units = %s, want 40 (w2 re-covered [0,40))", red.RedundantUnits)
	}
	if red.ConsumedUnits.Int64() != 100 {
		t.Fatalf("consumed units = %s, want 100", red.ConsumedUnits)
	}
}

// TestTerminationDetection: INTERVALS empties exactly when all work is
// reported done, and subsequent requests see Finished (§4.3).
func TestTerminationDetection(t *testing.T) {
	f, _ := newTestFarmer(500)
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})
	if f.Done() {
		t.Fatal("done before exploration")
	}
	up, _ := f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(500, 500), Power: 10})
	if !up.Finished {
		t.Fatal("update of exhausted interval did not signal finish")
	}
	if !f.Done() {
		t.Fatal("farmer not done after all intervals explored")
	}
	r2, _ := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if r2.Status != transport.WorkFinished {
		t.Fatalf("post-termination request status = %v", r2.Status)
	}
}

// TestSolutionSharing: reports update SOLUTION monotonically and acks carry
// the global best (§4.4).
func TestSolutionSharing(t *testing.T) {
	f, _ := newTestFarmer(100, WithInitialBest(50, nil))
	ack, _ := f.ReportSolution(transport.SolutionReport{Worker: "w1", Cost: 60})
	if ack.Accepted || ack.BestCost != 50 {
		t.Fatalf("worse report ack = %+v", ack)
	}
	ack, _ = f.ReportSolution(transport.SolutionReport{Worker: "w2", Cost: 40, Path: []int{1, 2}})
	if !ack.Accepted || ack.BestCost != 40 {
		t.Fatalf("improving report ack = %+v", ack)
	}
	best := f.Best()
	if best.Cost != 40 || len(best.Path) != 2 {
		t.Fatalf("best = %+v", best)
	}
	if c := f.Counters(); c.SolutionReports != 2 || c.SolutionImprovements != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestWorkerFailureOrphansInterval: a silent worker's interval is orphaned
// after the lease TTL and handed entirely to the next requester with its
// last checkpointed beginning (§4.1).
func TestWorkerFailureOrphansInterval(t *testing.T) {
	f, clk := newTestFarmer(1000, WithLeaseTTL(time.Second))
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})
	// w1 checkpoints progress to 200, then dies.
	f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(200, 1000), Power: 10})
	clk.now += int64(2 * time.Second)
	r2, err := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Interval.Equal(interval.FromInt64(200, 1000)) {
		t.Fatalf("w2 received %v, want the orphan [200,1000)", r2.Interval)
	}
	if c := f.Counters(); c.ExpiredOwners != 1 {
		t.Fatalf("expired owners = %d", c.ExpiredOwners)
	}
	// A late update from the resurrected w1 must be rejected as stale.
	up, _ := f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(300, 1000), Power: 10})
	if up.Known {
		t.Fatal("stale interval id accepted after handoff")
	}
}

// TestCheckpointRoundTrip: a farmer snapshot restores INTERVALS and
// SOLUTION exactly (§4.1 farmer failures), with owners cleared (orphans).
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := newTestFarmer(1000, WithCheckpointStore(store), WithInitialBest(77, []int{3, 1, 4}))
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})
	f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(123, 500), Power: 10})
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	g, err := Restore(interval.FromInt64(0, 1000), store, WithClock(func() int64 { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	wantCard, wantLen := f.Size()
	gotCard, gotLen := g.Size()
	if gotCard != wantCard || gotLen.Cmp(wantLen) != 0 {
		t.Fatalf("restored size = (%d,%s), want (%d,%s)", gotCard, gotLen, wantCard, wantLen)
	}
	best := g.Best()
	if best.Cost != 77 || len(best.Path) != 3 {
		t.Fatalf("restored best = %+v", best)
	}
	// Restored intervals are orphans: first requester takes one whole.
	r, _ := g.RequestWork(transport.WorkRequest{Worker: "w9", Power: 5})
	if r.Status != transport.WorkAssigned {
		t.Fatalf("restored farmer cannot assign: %v", r.Status)
	}
}

// TestRestoreWithoutCheckpoint falls back to a fresh farmer.
func TestRestoreWithoutCheckpoint(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := Restore(interval.FromInt64(0, 42), store)
	if err != nil {
		t.Fatal(err)
	}
	if card, total := f.Size(); card != 1 || total.Int64() != 42 {
		t.Fatalf("fresh fallback size = (%d,%s)", card, total)
	}
}

// TestUpdateUnknownInterval: updates for a completed interval report
// Known=false so the worker re-requests.
func TestUpdateUnknownInterval(t *testing.T) {
	f, _ := newTestFarmer(100)
	up, err := f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: 999,
		Remaining: interval.FromInt64(0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if up.Known {
		t.Fatal("unknown interval id accepted")
	}
	if up.Finished {
		t.Fatal("resolution not finished: root interval still present")
	}
}

// TestStatsDeltasAccumulate: explored/pruned/leaf deltas sum into the
// farmer counters (the Table 2 "Explored nodes" row).
func TestStatsDeltasAccumulate(t *testing.T) {
	f, _ := newTestFarmer(100)
	r, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 1})
	f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(10, 100), ExploredDelta: 500, PrunedDelta: 20, LeavesDelta: 30})
	f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(20, 100), ExploredDelta: 300, PrunedDelta: 5, LeavesDelta: 10})
	c := f.Counters()
	if c.ExploredNodes != 800 || c.PrunedNodes != 25 || c.EvaluatedLeaves != 40 {
		t.Fatalf("counters = %+v", c)
	}
	if c.WorkerCheckpoints != 2 {
		t.Fatalf("worker checkpoints = %d", c.WorkerCheckpoints)
	}
}

// TestInitialBestInfinity: a farmer with no initial bound reports Infinity
// until a solution arrives.
func TestInitialBestInfinity(t *testing.T) {
	f, _ := newTestFarmer(10)
	if f.Best().Cost != bb.Infinity {
		t.Fatalf("initial best = %d", f.Best().Cost)
	}
}

// TestEqualSplitAblation: with WithEqualSplit the partitioning ignores
// powers and cuts in the middle.
func TestEqualSplitAblation(t *testing.T) {
	f, _ := newTestFarmer(1000, WithEqualSplit(true))
	f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 90})
	r2, err := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Interval.Equal(interval.FromInt64(500, 1000)) {
		t.Fatalf("equal split gave %v, want [500,1000)", r2.Interval)
	}
	// Orphan handoff is unaffected: the first request still takes all.
	g, _ := newTestFarmer(100, WithEqualSplit(true))
	r, _ := g.RequestWork(transport.WorkRequest{Worker: "w", Power: 5})
	if !r.Interval.Equal(interval.FromInt64(0, 100)) {
		t.Fatalf("orphan handoff under equal split = %v", r.Interval)
	}
}

// TestWorkRequestsCounter counts every request, assigned or finished.
func TestWorkRequestsCounter(t *testing.T) {
	f, _ := newTestFarmer(10)
	r, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 1})
	f.UpdateInterval(transport.UpdateRequest{Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(10, 10), Power: 1})
	f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 1}) // finished now
	if c := f.Counters(); c.WorkRequests != 2 || c.WorkAllocations != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestIntervalsSnapshotOrdered: the Figure 5 view lists intervals by id.
func TestIntervalsSnapshotOrdered(t *testing.T) {
	f, _ := newTestFarmer(1000)
	f.RequestWork(transport.WorkRequest{Worker: "a", Power: 1})
	f.RequestWork(transport.WorkRequest{Worker: "b", Power: 1})
	f.RequestWork(transport.WorkRequest{Worker: "c", Power: 1})
	recs := f.IntervalsSnapshot()
	if len(recs) != 3 {
		t.Fatalf("snapshot has %d entries", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Fatalf("snapshot unordered: %v", recs)
		}
	}
}

// TestNegativePowerRejected: the protocol guards its input.
func TestNegativePowerRejected(t *testing.T) {
	f, _ := newTestFarmer(10)
	if _, err := f.RequestWork(transport.WorkRequest{Worker: "w", Power: -1}); err == nil {
		t.Fatal("negative power accepted")
	}
}

// TestCheckpointWithoutStore errors loudly instead of silently dropping
// the paper's fault-tolerance guarantee.
func TestCheckpointWithoutStore(t *testing.T) {
	f, _ := newTestFarmer(10)
	if err := f.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a store accepted")
	}
}

// TestUpdateIntervalAllocationBudget guards the alloc-free checkpoint loop:
// one full update round — request construction, the farmer's redundancy
// accounting and in-place intersection, and the escaping reply copy — must
// stay within a small constant allocation budget. Before the borrow-style
// interval accessors the farmer alone allocated roughly a dozen big.Ints
// per checkpoint; now the only per-round allocations left are the wire
// values that genuinely escape (the request's Remaining and the reply's
// intersected copy).
func TestUpdateIntervalAllocationBudget(t *testing.T) {
	root := interval.New(new(big.Int), big.NewInt(1<<40))
	f := New(root)
	reply, err := f.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
	if err != nil {
		t.Fatal(err)
	}
	cur := reply.Interval
	a := cur.A()
	step := big.NewInt(1000)
	allocs := testing.AllocsPerRun(200, func() {
		a.Add(a, step)
		rem := interval.New(a, cur.B())
		if _, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: "w", IntervalID: reply.IntervalID, Remaining: rem, Power: 1, ExploredDelta: 100,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("allocations per checkpoint round = %v, want <= 10", allocs)
	}
}
