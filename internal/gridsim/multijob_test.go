package gridsim

import (
	"testing"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/interval"
)

// multiTenantOracles solves every job of the scenario sequentially.
func multiTenantOracles(t *testing.T, cfg Config) map[string]bb.Solution {
	t.Helper()
	out := make(map[string]bb.Solution, len(cfg.Jobs))
	for _, sj := range cfg.Jobs {
		factory, err := sj.Spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		out[sj.ID], _ = bb.Solve(factory(), bb.Infinity)
	}
	return out
}

// TestMultiTenantGridScenario is the multi-tenant acceptance run: 8
// concurrent mixed-domain jobs over one simulated volatile fleet — hosts
// join, leave and crash on the availability model — must all terminate at
// their sequentially proven optima, with every tracked interval staying
// inside its own job's root the whole run (zero cross-job leakage), and
// the whole simulation must be deterministic per seed.
func TestMultiTenantGridScenario(t *testing.T) {
	cfg := MultiTenantScenario(42)
	oracles := multiTenantOracles(t, cfg)

	roots := make(map[string]interval.Interval, len(cfg.Jobs))
	for _, sj := range cfg.Jobs {
		factory, _ := sj.Spec.Factory()
		roots[sj.ID] = core.NewNumbering(factory().Shape()).RootRange()
	}

	sim := New(cfg, nil)
	leaks := 0
	sim.onTick = func(tick int) {
		if tick%25 != 0 {
			return
		}
		for id, root := range roots {
			fm := sim.Table().Farmer(id)
			if fm == nil {
				continue
			}
			for _, rec := range fm.IntervalsSnapshot() {
				if !rec.Interval.IsEmpty() && !root.ContainsInterval(rec.Interval) {
					leaks++
					t.Errorf("tick %d: job %s tracks %v outside its root", tick, id, rec.Interval)
				}
			}
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatalf("service did not drain in %d ticks", res.Ticks)
	}
	if leaks > 0 {
		t.Fatalf("%d cross-job leaks observed", leaks)
	}
	if len(res.Jobs) != len(cfg.Jobs) {
		t.Fatalf("%d job results, submitted %d", len(res.Jobs), len(cfg.Jobs))
	}
	for _, jr := range res.Jobs {
		if jr.State != "done" {
			t.Errorf("job %s: state %s, want done", jr.ID, jr.State)
			continue
		}
		if jr.BestCost != oracles[jr.ID].Cost {
			t.Errorf("job %s: grid optimum %d, sequential %d", jr.ID, jr.BestCost, oracles[jr.ID].Cost)
		}
		if jr.Counters.ExploredNodes == 0 {
			t.Errorf("job %s: zero explored nodes accounted", jr.ID)
		}
	}
	if res.Table.FairShareAssignments == 0 {
		t.Error("no fair-share assignments — the fleet never multiplexed")
	}
	if res.Crashes == 0 && res.Leaves == 0 {
		t.Error("no churn events — the availability model never engaged")
	}

	// Determinism: an identically seeded service reproduces the run.
	res2, err := New(cfg, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Ticks != res.Ticks || res2.Joins != res.Joins || res2.Crashes != res.Crashes {
		t.Errorf("determinism: ticks/joins/crashes %d/%d/%d vs %d/%d/%d",
			res.Ticks, res.Joins, res.Crashes, res2.Ticks, res2.Joins, res2.Crashes)
	}
	for i := range res.Jobs {
		if res2.Jobs[i].Counters.ExploredNodes != res.Jobs[i].Counters.ExploredNodes {
			t.Errorf("determinism: job %s explored %d vs %d",
				res.Jobs[i].ID, res.Jobs[i].Counters.ExploredNodes, res2.Jobs[i].Counters.ExploredNodes)
		}
	}

	t.Logf("multi-tenant: ticks=%d joins=%d leaves=%d crashes=%d fair-share=%d resumed=%d",
		res.Ticks, res.Joins, res.Leaves, res.Crashes,
		res.Table.FairShareAssignments, res.Table.Resumed)
}

// TestMultiTenantServiceRestart kills the whole service mid-run and
// rebuilds it over the same checkpoint directory: every job must resume
// from its namespaced snapshot (not restart from scratch) and still
// terminate at its proven optimum.
func TestMultiTenantServiceRestart(t *testing.T) {
	cfg := MultiTenantScenario(7)
	cfg.CheckpointDir = t.TempDir()
	oracles := multiTenantOracles(t, cfg)

	// Phase 1: run long enough for several table checkpoints, then stop
	// as if the service host died.
	cfg.MaxTicks = 100
	res, err := New(cfg, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished {
		t.Fatalf("phase 1 finished in %d ticks — instance sizes too small to interrupt", res.Ticks)
	}

	// Phase 2: a fresh service over the same store and job list.
	cfg.MaxTicks = 0 // back to the default ceiling
	res2, err := New(cfg, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Finished {
		t.Fatalf("restarted service did not drain in %d ticks", res2.Ticks)
	}
	if res2.Table.Resumed == 0 {
		t.Error("no job resumed from its checkpoint namespace")
	}
	for _, jr := range res2.Jobs {
		if jr.State != "done" {
			t.Errorf("job %s: state %s after restart, want done", jr.ID, jr.State)
			continue
		}
		if jr.BestCost != oracles[jr.ID].Cost {
			t.Errorf("job %s: post-restart optimum %d, sequential %d", jr.ID, jr.BestCost, oracles[jr.ID].Cost)
		}
	}
	t.Logf("restart: phase1 ticks=%d, phase2 ticks=%d resumed=%d",
		res.Ticks, res2.Ticks, res2.Table.Resumed)
}

// TestMultiTenantFairShareWeights checks the scheduler's currency on the
// simulated fleet: the weight-3 flowshop job must, integrated over every
// tick where it coexists with the weight-1 tsp job, hold strictly more
// fleet power — discrete assignments make any single tick noisy, but the
// time integral must track the 3:1 entitlement ordering.
func TestMultiTenantFairShareWeights(t *testing.T) {
	sim := New(MultiTenantScenario(99), nil)
	var heavySum, lightSum int64
	var window int
	sim.onTick = func(tick int) {
		var heavy, light int64
		var heavyLive, lightLive bool
		for _, p := range sim.Table().List() {
			if p.State != "running" {
				continue
			}
			switch p.ID {
			case "fs10x5a":
				heavy, heavyLive = p.FleetPower, true
			case "tsp9":
				light, lightLive = p.FleetPower, true
			}
		}
		if heavyLive && lightLive {
			heavySum += heavy
			lightSum += light
			window++
		}
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if window < 20 {
		t.Fatalf("jobs coexisted for only %d ticks; scenario no longer exercises contention", window)
	}
	if heavySum <= lightSum {
		t.Errorf("weight-3 job integrated fleet power %d over %d ticks, weight-1 job %d — fair share ignored weights",
			heavySum, window, lightSum)
	}
	t.Logf("fair share: weight-3 power-integral %d vs weight-1 %d over %d shared ticks", heavySum, lightSum, window)
}

// TestMultiTenantRejectsTree: several jobs on a farmer tree are a
// configuration error, reported by Run before the first tick.
func TestMultiTenantRejectsTree(t *testing.T) {
	cfg := MultiTenantScenario(1)
	cfg.Subtrees = 2
	res, err := New(cfg, nil).Run()
	if err == nil {
		t.Fatal("8 jobs on a 2-sub-farmer tree ran")
	}
	if res.Ticks != 0 {
		t.Fatalf("rejected configuration stepped %d ticks", res.Ticks)
	}
}
