package jobs

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/knapsack"
	"repro/internal/transport"
	"repro/internal/tsp"
	"repro/internal/worker"
)

func knapSpec(n int, seed int64) Spec {
	return Spec{Domain: "knapsack", N: n, Seed: seed}
}

// drain runs one mux worker session against the table to completion.
func drain(t *testing.T, tb *Table, specs map[string]Spec) *worker.Session {
	t.Helper()
	sess := worker.NewMultiJobSession(worker.Config{ID: "w0", Power: 100, UpdatePeriodNodes: 1 << 10},
		tb, SpecFactories(specs))
	for i := 0; ; i++ {
		_, fin, err := sess.Advance(1 << 14)
		if err != nil {
			t.Fatal(err)
		}
		if fin {
			return sess
		}
		if i > 10_000 {
			t.Fatal("worker never finished")
		}
	}
}

func TestSingleJobSolvesToOptimum(t *testing.T) {
	spec := knapSpec(18, 3)
	want, _ := bb.Solve(knapsack.NewProblem(knapsack.Random(18, 3)), bb.Infinity)
	tb := NewTable(Config{})
	if err := tb.Submit("k18", spec); err != nil {
		t.Fatal(err)
	}
	drain(t, tb, map[string]Spec{"k18": spec})
	p, err := tb.Progress("k18")
	if err != nil {
		t.Fatal(err)
	}
	if p.State != "done" || p.BestCost != want.Cost {
		t.Fatalf("job state %s cost %d, want done/%d", p.State, p.BestCost, want.Cost)
	}
	if p.FrontierPct != 100 {
		t.Fatalf("frontier %.1f%%, want 100", p.FrontierPct)
	}
	if !tb.Done() {
		t.Fatal("table not done after its only job finished")
	}
}

// TestSingleJobWorkerServesOneJobTable: the single-job deployment story —
// cmd/worker against a one-job jobd — holds by construction, not by a
// routing guess: worker.Session echoes the WorkReply.Job tag on every fold
// and report, so it proves the table's job whatever id the operator
// submitted under. Untagged folds and reports are rejected and counted
// with one job running exactly as with two.
func TestSingleJobWorkerServesOneJobTable(t *testing.T) {
	spec := knapSpec(18, 7)
	want, _ := bb.Solve(knapsack.NewProblem(knapsack.Random(18, 7)), bb.Infinity)
	for _, id := range []string{checkpoint.DefaultNamespace, "ops-picked-a-name"} {
		tb := NewTable(Config{})
		if err := tb.Submit(id, spec); err != nil {
			t.Fatal(err)
		}
		sess := worker.NewSession(worker.Config{ID: "solo", Power: 50, UpdatePeriodNodes: 1 << 10},
			tb, knapsack.NewProblem(knapsack.Random(18, 7)))
		for i := 0; ; i++ {
			_, fin, err := sess.Advance(1 << 14)
			if err != nil {
				t.Fatal(err)
			}
			if fin {
				break
			}
			if i > 10_000 {
				t.Fatal("single-job worker never finished")
			}
		}
		p, _ := tb.Progress(id)
		if p.State != "done" || p.BestCost != want.Cost {
			t.Fatalf("single-job worker left job %q %s at %d, want done/%d", id, p.State, p.BestCost, want.Cost)
		}
		if c := tb.Counters(); c.InvalidJobIDs != 0 || c.UnknownJobs != 0 {
			t.Fatalf("job %q: tagged traffic was rejected: %+v", id, c)
		}
	}

	// Handed a second job, the one-problem worker stops with a
	// configuration error naming both: same-shape instances pass every
	// boundary check, so exploring on would report costs from the wrong
	// tree under the second job's tag. Fair share sends it to B once a
	// stronger helper holds the rest of A.
	tb := NewTable(Config{})
	for i, id := range []string{"A", "B"} {
		if err := tb.Submit(id, knapSpec(18, int64(7+i))); err != nil {
			t.Fatal(err)
		}
	}
	sess := worker.NewSession(worker.Config{ID: "solo", Power: 50, UpdatePeriodNodes: 1 << 10},
		tb, knapsack.NewProblem(knapsack.Random(18, 7)))
	_, _, err := sess.Advance(0)
	for _, helper := range []struct {
		job   string
		power int64
	}{{"B", 60}, {"A", 1000}} {
		rep, herr := tb.RequestWork(transport.WorkRequest{Worker: transport.WorkerID("on" + helper.job), Power: helper.power})
		if herr != nil || rep.Job != helper.job {
			t.Fatalf("helper meant for %s: %+v %v", helper.job, rep, herr)
		}
	}
	for i := 0; err == nil && !sess.Finished() && i < 10_000; i++ {
		_, _, err = sess.Advance(1 << 14)
	}
	if err == nil || !strings.Contains(err.Error(), `"A"`) || !strings.Contains(err.Error(), `"B"`) {
		t.Fatalf("one-problem worker on a two-job table: err = %v, want a configuration error naming both jobs", err)
	}

	for _, ids := range [][]string{{"one"}, {"one", "two"}} {
		tb := NewTable(Config{})
		for i, id := range ids {
			if err := tb.Submit(id, knapSpec(14, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		before, _ := tb.Progress("one")
		if _, err := tb.UpdateInterval(transport.UpdateRequest{Worker: "w", IntervalID: 1, ExploredDelta: 5}); err == nil {
			t.Fatalf("untagged update accepted with %d job(s) running", len(ids))
		}
		if _, err := tb.ReportSolution(transport.SolutionReport{Worker: "w", Cost: 1}); err == nil {
			t.Fatalf("untagged report accepted with %d job(s) running", len(ids))
		}
		if c := tb.Counters(); c.InvalidJobIDs != 2 {
			t.Fatalf("%d job(s): InvalidJobIDs %d, want 2", len(ids), c.InvalidJobIDs)
		}
		if after, _ := tb.Progress("one"); !reflect.DeepEqual(after, before) {
			t.Fatalf("%d job(s): rejected untagged traffic moved the job: %+v -> %+v", len(ids), before, after)
		}
	}
}

// TestStragglerFoldStaysWithItsJob pins the cross-tenant bug the sole-job
// routing guess caused: a single-job worker holds job A's interval, A is
// cancelled, B is submitted and runs alone, and the straggler folds. The
// fold must be answered with A's terminal verdict and leave B untouched —
// routed to B, B's farmer would intersect its own copy with numbers from
// A's tree and record ground nobody explored as done.
func TestStragglerFoldStaysWithItsJob(t *testing.T) {
	tb := NewTable(Config{})
	if err := tb.Submit("A", knapSpec(18, 3)); err != nil {
		t.Fatal(err)
	}
	straggler := worker.NewSession(worker.Config{ID: "straggler", Power: 50, UpdatePeriodNodes: 1 << 20},
		tb, knapsack.NewProblem(knapsack.Random(18, 3)))
	if n, _, err := straggler.Advance(50); err != nil || n == 0 || !straggler.HasWork() {
		t.Fatalf("straggler did not take and explore A's root: n=%d err=%v", n, err)
	}
	if err := tb.Cancel("A"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Submit("B", knapSpec(18, 4)); err != nil {
		t.Fatal(err)
	}
	if rep, err := tb.RequestWork(transport.WorkRequest{Worker: "w2", Power: 50}); err != nil ||
		rep.Status != transport.WorkAssigned || rep.Job != "B" {
		t.Fatalf("second worker on B's root: %+v %v", rep, err)
	}
	before, _ := tb.Progress("B")

	if err := straggler.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after, _ := tb.Progress("B"); !reflect.DeepEqual(after, before) {
		t.Fatalf("A's straggler moved B:\nbefore %+v\nafter  %+v", before, after)
	}
	if straggler.HasWork() || !straggler.Finished() {
		t.Fatalf("straggler kept going (work=%v finished=%v), want A's terminal verdict",
			straggler.HasWork(), straggler.Finished())
	}
	if a, _ := tb.Progress("A"); a.Counters.ExploredNodes == 0 {
		t.Fatal("the late fold's nodes were not credited to A")
	}
	if c := tb.Counters(); c.StoppedJobTraffic != 1 {
		t.Fatalf("StoppedJobTraffic = %d, want 1", c.StoppedJobTraffic)
	}
}

func TestAdmissionControl(t *testing.T) {
	tb := NewTable(Config{MaxActive: 2, MaxQueued: 2, MaxPerUser: 3})
	for i, id := range []string{"a", "b", "c", "d"} {
		s := knapSpec(12, int64(i))
		s.Owner = "alice"
		if i == 3 {
			s.Owner = "bob"
		}
		if err := tb.Submit(id, s); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	for id, want := range map[string]string{"a": "running", "b": "running", "c": "queued", "d": "queued"} {
		if p, _ := tb.Progress(id); p.State != want {
			t.Errorf("job %s state %s, want %s", id, p.State, want)
		}
	}
	// Queue is full now.
	if err := tb.Submit("e", knapSpec(12, 9)); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("submit into a full queue: %v", err)
	}
	// alice is at her cap (a, b, c live).
	over := knapSpec(12, 10)
	over.Owner = "alice"
	if err := tb.Submit("f", over); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("submit over per-user cap: %v", err)
	}
	// Duplicate id.
	if err := tb.Submit("a", knapSpec(12, 11)); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate submit: %v", err)
	}
	// Hostile id.
	if err := tb.Submit("../escape", knapSpec(12, 12)); err == nil {
		t.Fatal("hostile job id admitted")
	}
	ctr := tb.Counters()
	if ctr.RejectedSubmits != 3 || ctr.InvalidJobIDs != 1 {
		t.Fatalf("counters %+v", ctr)
	}
	// Cancelling a running job promotes the queue head.
	if err := tb.Cancel("a"); err != nil {
		t.Fatal(err)
	}
	if p, _ := tb.Progress("c"); p.State != "running" {
		t.Errorf("queued job not promoted after cancel: %s", p.State)
	}
	if p, _ := tb.Progress("d"); p.State != "queued" {
		t.Errorf("queue order broken: d is %s", p.State)
	}
}

// TestFairShareHonorsWeights: with weights 1 and 3, eight one-request
// workers split 2/6 across the two jobs.
func TestFairShareHonorsWeights(t *testing.T) {
	tb := NewTable(Config{})
	light := knapSpec(16, 1)
	heavy := knapSpec(16, 2)
	heavy.Weight = 3
	if err := tb.Submit("light", light); err != nil {
		t.Fatal(err)
	}
	if err := tb.Submit("heavy", heavy); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for i := 0; i < 8; i++ {
		rep, err := tb.RequestWork(transport.WorkRequest{
			Worker: transport.WorkerID(string(rune('a' + i))), Power: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != transport.WorkAssigned {
			t.Fatalf("request %d: status %v", i, rep.Status)
		}
		got[rep.Job]++
	}
	if got["light"] != 2 || got["heavy"] != 6 {
		t.Fatalf("assignments split %v, want light:2 heavy:6", got)
	}
	if c := tb.Counters(); c.FairShareAssignments != 8 {
		t.Fatalf("FairShareAssignments = %d, want 8", c.FairShareAssignments)
	}
}

func TestCancelResubmitResumesFromCheckpoint(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Domain: "tsp", N: 9, Seed: 2} // ~10k sequential nodes
	want, _ := bb.Solve(tsp.NewProblem(tsp.RandomEuclidean(9, 1000, 2)), bb.Infinity)
	tb := NewTable(Config{Store: store})
	if err := tb.Submit("resume-me", spec); err != nil {
		t.Fatal(err)
	}
	// Explore a little, fold, checkpoint, cancel.
	sess := worker.NewMultiJobSession(worker.Config{ID: "w0", Power: 100, UpdatePeriodNodes: 256},
		tb, SpecFactories(map[string]Spec{"resume-me": spec}))
	for i := 0; i < 4; i++ {
		if _, _, err := sess.Advance(512); err != nil {
			t.Fatal(err)
		}
	}
	if p, _ := tb.Progress("resume-me"); p.State != "running" {
		t.Fatalf("job already %s after the partial explore — instance too small", p.State)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Cancel("resume-me"); err != nil {
		t.Fatal(err)
	}
	if p, _ := tb.Progress("resume-me"); p.State != "cancelled" {
		t.Fatalf("state %s after cancel", p.State)
	}
	// Resubmit under the same id: the namespace checkpoint is picked up.
	if err := tb.Submit("resume-me", spec); err != nil {
		t.Fatal(err)
	}
	if c := tb.Counters(); c.Resumed != 1 {
		t.Fatalf("Resumed = %d, want 1", c.Resumed)
	}
	drain(t, tb, map[string]Spec{"resume-me": spec})
	p, _ := tb.Progress("resume-me")
	if p.State != "done" || p.BestCost != want.Cost {
		t.Fatalf("resumed job ended %s/%d, want done/%d", p.State, p.BestCost, want.Cost)
	}
}

// TestStoppedJobTraffic: messages addressed to a cancelled job get
// terminal verdicts, touch nothing, and are counted.
func TestStoppedJobTraffic(t *testing.T) {
	tb := NewTable(Config{})
	if err := tb.Submit("gone", knapSpec(14, 1)); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.RequestWork(transport.WorkRequest{Worker: "w", Power: 10, Job: "gone"})
	if err != nil || rep.Status != transport.WorkAssigned {
		t.Fatalf("seed request: %v %v", rep.Status, err)
	}
	if err := tb.Cancel("gone"); err != nil {
		t.Fatal(err)
	}
	if rep, err := tb.RequestWork(transport.WorkRequest{Worker: "w", Power: 10, Job: "gone"}); err != nil ||
		rep.Status != transport.WorkFinished {
		t.Fatalf("request to cancelled job: %v %v", rep.Status, err)
	}
	urep, err := tb.UpdateInterval(transport.UpdateRequest{
		Worker: "w", IntervalID: rep.IntervalID, Remaining: rep.Interval, Power: 10, Job: "gone",
	})
	if err != nil || urep.Known || !urep.Finished {
		t.Fatalf("update to cancelled job: %+v %v", urep, err)
	}
	if _, err := tb.ReportSolution(transport.SolutionReport{Worker: "w", Cost: 1, Path: []int{0}, Job: "gone"}); err != nil {
		t.Fatalf("report to cancelled job: %v", err)
	}
	if c := tb.Counters(); c.StoppedJobTraffic != 3 {
		t.Fatalf("StoppedJobTraffic = %d, want 3", c.StoppedJobTraffic)
	}
	// Unknown and invalid ids are errors with their own counters.
	if _, err := tb.UpdateInterval(transport.UpdateRequest{Worker: "w", Job: "never-was"}); err == nil {
		t.Fatal("update for unknown job accepted")
	}
	if _, err := tb.RequestWork(transport.WorkRequest{Worker: "w", Power: 10, Job: "bad/id"}); err == nil {
		t.Fatal("request with invalid job id accepted")
	}
	if c := tb.Counters(); c.UnknownJobs != 1 || c.InvalidJobIDs != 1 {
		t.Fatalf("counters %+v", c)
	}
}

// TestKeepAliveHoldsWorkers: a drained keep-alive table answers WorkWait,
// and a later submission puts the same workers back to work.
func TestKeepAliveHoldsWorkers(t *testing.T) {
	tb := NewTable(Config{KeepAlive: true})
	rep, err := tb.RequestWork(transport.WorkRequest{Worker: "w", Power: 10})
	if err != nil || rep.Status != transport.WorkWait {
		t.Fatalf("empty keep-alive table: %v %v", rep.Status, err)
	}
	if err := tb.Submit("late", knapSpec(12, 4)); err != nil {
		t.Fatal(err)
	}
	if rep, err := tb.RequestWork(transport.WorkRequest{Worker: "w", Power: 10}); err != nil ||
		rep.Status != transport.WorkAssigned || rep.Job != "late" {
		t.Fatalf("post-submission request: %+v %v", rep, err)
	}
}

// TestCorruptJobQuarantined: one corrupt checkpoint must not block the
// others — the table restart quarantines that job (with its load error
// queryable) and resumes the rest; resubmitting the quarantined id starts
// it over.
func TestCorruptJobQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"healthy": {Domain: "tsp", N: 9, Seed: 2},
		"rotten":  {Domain: "tsp", N: 9, Seed: 5},
	}
	tb := NewTable(Config{Store: store})
	for id, spec := range specs {
		if err := tb.Submit(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	sess := worker.NewMultiJobSession(worker.Config{ID: "w0", Power: 100, UpdatePeriodNodes: 256},
		tb, SpecFactories(specs))
	for i := 0; i < 6; i++ {
		if _, _, err := sess.Advance(512); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly one checkpoint: no *.prev generation, so corruption has no
	// fallback and must quarantine.
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "rotten", "intervals.ckpt"),
		[]byte("rotten to the core\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Service restart: fresh table over the same store.
	store2, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb2 := NewTable(Config{Store: store2})
	if err := tb2.Submit("healthy", specs["healthy"]); err != nil {
		t.Fatalf("healthy job blocked by sibling corruption: %v", err)
	}
	err = tb2.Submit("rotten", specs["rotten"])
	if err == nil || !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("rotten submit: err = %v, want ErrCorrupt", err)
	}
	p, err := tb2.Progress("rotten")
	if err != nil {
		t.Fatal(err)
	}
	if p.State != "quarantined" || p.Error == "" {
		t.Fatalf("rotten job: state %s error %q, want quarantined with load error", p.State, p.Error)
	}
	if hp, _ := tb2.Progress("healthy"); hp.State != "running" {
		t.Fatalf("healthy job is %s, want running", hp.State)
	}
	c := tb2.Counters()
	if c.QuarantinedJobs != 1 || c.Resumed != 1 || c.CorruptSnapshots == 0 {
		t.Fatalf("counters %+v, want 1 quarantined / 1 resumed / corruption counted", c)
	}
	// Traffic to the quarantined job gets a terminal verdict, not a hang.
	urep, err := tb2.UpdateInterval(transport.UpdateRequest{Worker: "w", Job: "rotten"})
	if err != nil || urep.Known || !urep.Finished {
		t.Fatalf("update to quarantined job: %+v %v", urep, err)
	}
	// Resubmission starts the job over (the bad files are in quarantine/,
	// not in the namespace).
	if err := tb2.Submit("rotten", specs["rotten"]); err != nil {
		t.Fatalf("resubmit of quarantined job: %v", err)
	}
	if p, _ := tb2.Progress("rotten"); p.State != "running" {
		t.Fatalf("resubmitted job is %s, want running", p.State)
	}
	drain(t, tb2, specs)
	for id := range specs {
		if p, _ := tb2.Progress(id); p.State != "done" {
			t.Fatalf("job %s ended %s", id, p.State)
		}
	}
}

// TestLateFoldCountsTowardFinishedJob: a worker still holding an un-folded
// period when its job completes folds late. The fold is answered with the
// terminal verdict and touches no interval state, but the nodes were
// really explored, so the finished job's kept farmer counts them — by
// exactly the reported deltas, as the bare farmer would — the table counts
// the fold as stopped-job traffic, and a negative delta is refused.
func TestLateFoldCountsTowardFinishedJob(t *testing.T) {
	// A threshold above any root length: the second requester gets a
	// duplicate of the first one's interval instead of a split.
	tb := NewTable(Config{})
	if err := tb.Submit("k", knapSpec(14, 1), farmer.WithThreshold(interval.NumBig(new(big.Int).Lsh(big.NewInt(1), 200)))); err != nil {
		t.Fatal(err)
	}
	first, err := tb.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10, Job: "k"})
	if err != nil || first.Status != transport.WorkAssigned {
		t.Fatalf("first request: %v %v", first.Status, err)
	}
	second, err := tb.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10, Job: "k"})
	if err != nil || second.Status != transport.WorkAssigned || second.IntervalID != first.IntervalID {
		t.Fatalf("second request: status %v id %d (want a duplicate of %d) err %v",
			second.Status, second.IntervalID, first.IntervalID, err)
	}

	// w1 finishes the shared interval: the job completes under w2's feet.
	end := first.Interval.B()
	rep, err := tb.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: first.IntervalID, Remaining: interval.New(end, end),
		Power: 10, ExploredDelta: 50, Job: "k",
	})
	if err != nil || !rep.Finished {
		t.Fatalf("final fold: %+v %v", rep, err)
	}
	before, err := tb.Progress("k")
	if err != nil {
		t.Fatal(err)
	}
	if before.State != "done" || before.Counters.ExploredNodes != 50 {
		t.Fatalf("after the final fold: state %s explored %d, want done/50", before.State, before.Counters.ExploredNodes)
	}

	late, err := tb.UpdateInterval(transport.UpdateRequest{
		Worker: "w2", IntervalID: second.IntervalID, Remaining: second.Interval,
		Power: 10, ExploredDelta: 123, PrunedDelta: 7, LeavesDelta: 1, Job: "k",
	})
	if err != nil || late.Known || !late.Finished {
		t.Fatalf("late fold: %+v %v", late, err)
	}
	after, _ := tb.Progress("k")
	if got := after.Counters.ExploredNodes - before.Counters.ExploredNodes; got != 123 {
		t.Errorf("late fold credited %d explored nodes, want exactly 123", got)
	}
	if after.Counters.PrunedNodes != 7 || after.Counters.EvaluatedLeaves != 1 {
		t.Errorf("late fold credited pruned=%d leaves=%d, want 7/1", after.Counters.PrunedNodes, after.Counters.EvaluatedLeaves)
	}
	if after.State != "done" || after.Intervals != 0 || after.FrontierPct != 100 || after.BestCost != before.BestCost {
		t.Errorf("late fold disturbed the finished job: %+v", after)
	}
	if c := tb.Counters(); c.StoppedJobTraffic != 1 {
		t.Errorf("StoppedJobTraffic = %d, want 1", c.StoppedJobTraffic)
	}
	// The done job kept its farmer, which counted the late fold as a
	// checkpoint like any other; Progress reads that farmer.
	fm := tb.Farmer("k")
	if fm == nil {
		t.Fatal("the done job dropped its farmer")
	}
	if got := fm.Counters(); got != after.Counters {
		t.Errorf("Progress counters %+v, farmer counters %+v", after.Counters, got)
	}
	if got := after.Counters.WorkerCheckpoints - before.Counters.WorkerCheckpoints; got != 1 {
		t.Errorf("the late fold counted as %d worker checkpoints, want 1", got)
	}

	// A late fold is not a way to unwind counters.
	if _, err := tb.UpdateInterval(transport.UpdateRequest{
		Worker: "w2", IntervalID: second.IntervalID, Remaining: second.Interval,
		Power: 10, ExploredDelta: -1_000, Job: "k",
	}); err == nil {
		t.Fatal("negative late delta accepted")
	}
	final, _ := tb.Progress("k")
	if final.Counters.ExploredNodes != after.Counters.ExploredNodes || final.Counters.RejectedIntervals != 1 {
		t.Errorf("after a negative late delta: explored %d (was %d), RejectedIntervals %d",
			final.Counters.ExploredNodes, after.Counters.ExploredNodes, final.Counters.RejectedIntervals)
	}
	if c := tb.Counters(); c.StoppedJobTraffic != 2 {
		t.Errorf("StoppedJobTraffic = %d after the rejected fold, want 2", c.StoppedJobTraffic)
	}
}

// TestEndpointStampsItsJob: a job's Endpoint tags all three messages with
// that job, whatever tag the caller set, and a farmer tree whose
// sub-farmers fold through job A's endpoint proves A without touching B.
func TestEndpointStampsItsJob(t *testing.T) {
	tb := NewTable(Config{})
	specA, specB := knapSpec(16, 3), knapSpec(16, 4)
	if err := tb.Submit("A", specA); err != nil {
		t.Fatal(err)
	}
	if err := tb.Submit("B", specB); err != nil {
		t.Fatal(err)
	}
	ep := tb.Endpoint("A")
	rep, err := ep.RequestWork(transport.WorkRequest{Worker: "w1", Power: 1, Job: "B"})
	if err != nil || rep.Status != transport.WorkAssigned || rep.Job != "A" {
		t.Fatalf("request through A's endpoint: %+v %v", rep, err)
	}
	if _, err := ep.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: rep.IntervalID, Remaining: rep.Interval, Power: 1, ExploredDelta: 5,
	}); err != nil {
		t.Fatalf("untagged fold through A's endpoint: %v", err)
	}
	if _, err := ep.ReportSolution(transport.SolutionReport{Worker: "w1", Cost: -1, Job: "B"}); err != nil {
		t.Fatalf("report through A's endpoint: %v", err)
	}
	a, _ := tb.Progress("A")
	if a.Counters.WorkRequests != 1 || a.Counters.WorkerCheckpoints != 1 || a.Counters.SolutionReports != 1 {
		t.Fatalf("A counted requests/folds/reports %d/%d/%d, want 1/1/1",
			a.Counters.WorkRequests, a.Counters.WorkerCheckpoints, a.Counters.SolutionReports)
	}
	if c := tb.Counters(); c.InvalidJobIDs != 0 {
		t.Fatalf("the endpoint let an untagged message through: %+v", c)
	}
	beforeB, _ := tb.Progress("B")

	// A farmer tree over job C's endpoint, driven to completion.
	specC := knapSpec(18, 5)
	want, _ := bb.Solve(knapsack.NewProblem(knapsack.Random(18, 5)), bb.Infinity)
	tree := farmer.NewTree(farmer.TreeConfig{Subtrees: 2, SubUpdateEvery: 2, Upstream: tb.Endpoint("C")})
	if err := tb.Submit("C", specC, tree.RootOptions...); err != nil {
		t.Fatal(err)
	}
	factory, _ := specC.Factory()
	var sessions []*worker.Session
	for i := 0; i < 4; i++ {
		sessions = append(sessions, worker.NewSession(worker.Config{
			ID: transport.WorkerID(fmt.Sprintf("t%d", i)), Power: 3, UpdatePeriodNodes: 256,
		}, tree.Endpoint(i), factory()))
	}
	for step := 0; ; step++ {
		if p, _ := tb.Progress("C"); p.State == "done" {
			break
		}
		if step > 100_000 {
			t.Fatal("tree never finished job C")
		}
		if _, _, err := sessions[step%len(sessions)].Advance(512); err != nil {
			t.Fatal(err)
		}
		tree.Pulse()
	}
	c, _ := tb.Progress("C")
	if c.BestCost != want.Cost {
		t.Fatalf("tree proved %d for C, sequential optimum %d", c.BestCost, want.Cost)
	}
	if afterB, _ := tb.Progress("B"); !reflect.DeepEqual(afterB, beforeB) {
		t.Fatalf("C's sub-farmers moved B:\nbefore %+v\nafter  %+v", beforeB, afterB)
	}
}

// TestSubmitOptionsOnPromotionAndResubmit: a job's own farmer options
// reach its farmer when it is promoted from the queue. A cancelled job
// resubmitted without them runs without them, and resubmitted with them
// runs with them. The probe option is a
// threshold above any root length, under which a second requester gets a
// duplicate of the first one's interval instead of a split.
func TestSubmitOptionsOnPromotionAndResubmit(t *testing.T) {
	tb := NewTable(Config{MaxActive: 1})
	duplicates := func(id string) bool {
		t.Helper()
		first, err := tb.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10, Job: id})
		if err != nil || first.Status != transport.WorkAssigned {
			t.Fatalf("%s first request: %v %v", id, first.Status, err)
		}
		second, err := tb.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10, Job: id})
		if err != nil || second.Status != transport.WorkAssigned {
			t.Fatalf("%s second request: %v %v", id, second.Status, err)
		}
		return second.IntervalID == first.IntervalID
	}
	if err := tb.Submit("plain", knapSpec(14, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Submit("dup", knapSpec(14, 2), farmer.WithThreshold(interval.NumBig(new(big.Int).Lsh(big.NewInt(1), 200)))); err != nil {
		t.Fatal(err)
	}
	if p, _ := tb.Progress("dup"); p.State != "queued" {
		t.Fatalf("dup is %s, want queued behind plain", p.State)
	}
	if duplicates("plain") {
		t.Fatal("plain, submitted without options, duplicated")
	}
	if err := tb.Cancel("plain"); err != nil {
		t.Fatal(err)
	}
	if !duplicates("dup") {
		t.Fatal("promoted from the queue, dup lost its threshold option")
	}
	if err := tb.Cancel("dup"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Submit("dup", knapSpec(14, 2)); err != nil {
		t.Fatal(err)
	}
	if duplicates("dup") {
		t.Fatal("resubmitted without options, dup kept its predecessor's threshold")
	}
	if err := tb.Cancel("dup"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Submit("dup", knapSpec(14, 2), farmer.WithThreshold(interval.NumBig(new(big.Int).Lsh(big.NewInt(1), 200)))); err != nil {
		t.Fatal(err)
	}
	if !duplicates("dup") {
		t.Fatal("resubmitted with its threshold option, dup does not duplicate")
	}
	if n := len(tb.List()); n != 2 {
		t.Fatalf("List holds %d entries for 2 jobs: a resubmission must replace its predecessor", n)
	}
}
