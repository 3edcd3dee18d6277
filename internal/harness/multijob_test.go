package harness

import (
	"testing"
)

// TestMultiJobChurnConformance runs the multi-tenant chaos scenario twice:
// the first run must satisfy every per-job conformance invariant (interval
// partition per job, incumbent optimality per job, zero cross-job leakage)
// and actually exercise its faults; the second must produce a
// byte-identical event trace.
func TestMultiJobChurnConformance(t *testing.T) {
	sc := MultiJobChurn()
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%s: VIOLATION: %s", rep.Name, v)
	}
	if !rep.Finished {
		t.Fatalf("%s: did not finish (%d ticks)", rep.Name, rep.Ticks)
	}

	// The fault schedule must actually land: kills with rejoins, dropped
	// replies, a mid-run cancel, and checkpoints across all three jobs.
	if rep.Kills < len(sc.Kills) {
		t.Errorf("%d kills, scheduled %d", rep.Kills, len(sc.Kills))
	}
	if rep.Rejoins == 0 {
		t.Errorf("no rejoins")
	}
	if rep.Drops == 0 {
		t.Errorf("no dropped messages despite DropReplyPct=%d", sc.DropReplyPct)
	}
	if rep.Checkpoints == 0 {
		t.Errorf("no checkpoints")
	}
	if rep.DiskFaults == 0 {
		t.Errorf("no checkpoint sweep hit the injected fsync EIO despite DiskFaultEvery=%d", sc.DiskFaultEvery)
	}
	if got := rep.Table.Cancelled; got != 1 {
		t.Errorf("table cancelled %d jobs, want 1", got)
	}
	if rep.Table.FairShareAssignments == 0 {
		t.Errorf("no fair-share assignments — the fleet never multiplexed")
	}

	// Per-job outcomes: the survivors prove their optima, the cancelled
	// job stays cancelled, and every completed job explored a plausible
	// share of its tree.
	states := map[string]string{}
	for _, out := range rep.Jobs {
		states[out.ID] = out.State
		if out.State == "done" && out.Counters.ExploredNodes == 0 {
			t.Errorf("job %s: done with zero explored nodes", out.ID)
		}
	}
	if states["fs10x5"] != "done" || states["tsp9"] != "done" {
		t.Errorf("surviving jobs not done: %v", states)
	}
	if states["qap7"] != "cancelled" {
		t.Errorf("qap7 state %q, want cancelled", states["qap7"])
	}

	again, err := Run(sc)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	assertSameTrace(t, rep.Trace, again.Trace)

	t.Logf("%s: ticks=%d drops=%d kills=%d rejoins=%d ckpts=%d ckpt-faults=%d fair-share=%d",
		rep.Name, rep.Ticks, rep.Drops, rep.Kills, rep.Rejoins,
		rep.Checkpoints, rep.DiskFaults, rep.Table.FairShareAssignments)
}

// TestMultiJobRejectsSingleJobFaults: sub-farmers, root restarts and disk
// corruption target one job's root, so a scenario with several jobs and
// any of them is refused before it runs.
func TestMultiJobRejectsSingleJobFaults(t *testing.T) {
	for name, mutate := range map[string]func(*Scenario){
		"subtrees":        func(sc *Scenario) { sc.Subtrees = 2 },
		"farmer-restarts": func(sc *Scenario) { sc.FarmerRestarts = []int{3} },
		"corrupt-ticks":   func(sc *Scenario) { sc.CorruptTicks = []int{3} },
	} {
		sc := MultiJobChurn()
		mutate(&sc)
		if rep, err := Run(sc); err == nil || rep.Ticks != 0 {
			t.Errorf("%s: ran %d ticks, err %v; want a refusal", name, rep.Ticks, err)
		}
	}
}
