package gridsim

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/flowshop"
	"repro/internal/interval"
)

// TestSimulationEqualSplitStillCorrect: the ablation knob changes load
// balancing, never correctness.
func TestSimulationEqualSplitStillCorrect(t *testing.T) {
	cfg, factory, want := fastConfig(17)
	cfg.EqualSplit = true
	res, err := New(cfg, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || res.Best.Cost != want.Cost {
		t.Fatalf("equal-split run: finished=%v best=%d want=%d", res.Finished, res.Best.Cost, want.Cost)
	}
}

// TestSimulationWritesCheckpoints: with a directory configured the farmer
// leaves real, loadable two-file snapshots on its cadence, in the single
// job's namespace.
func TestSimulationWritesCheckpoints(t *testing.T) {
	cfg, factory, _ := fastConfig(19)
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg.CheckpointDir = dir
	cfg.FarmerCheckpointSeconds = 30 // several snapshots over the run
	res, err := New(cfg, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.FarmerCheckpoints == 0 {
		t.Fatal("no farmer checkpoints recorded")
	}
	store, err := checkpoint.NewStore(filepath.Join(dir, checkpoint.DefaultNamespace))
	if err != nil {
		t.Fatal(err)
	}
	if !store.Exists() {
		t.Fatal("no snapshot files on disk")
	}
	if _, err := store.Load(); err != nil {
		t.Fatalf("snapshot unreadable: %v", err)
	}
}

// TestSimulationReusedCheckpointDirStartsFresh: a second single
// resolution over the first one's checkpoint directory, on another
// instance of the same shape, proves its own optimum. Resuming the first
// run's last snapshot would carry its frontier and incumbent over to an
// instance they do not belong to.
func TestSimulationReusedCheckpointDirStartsFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg, factory, want := fastConfig(19)
	cfg.CheckpointDir = dir
	cfg.FarmerCheckpointSeconds = 30 // snapshots well before the end
	res, err := New(cfg, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.FarmerCheckpoints == 0 {
		t.Fatal("the first run left no snapshot to resume")
	}
	if !res.Finished || res.Best.Cost != want.Cost {
		t.Fatalf("first run: finished=%v best=%d want=%d", res.Finished, res.Best.Cost, want.Cost)
	}
	ins := flowshop.Taillard(12, 10, 6)
	other := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	wantOther, _ := bb.Solve(other(), bb.Infinity)
	if wantOther.Cost == want.Cost {
		t.Fatalf("both instances have optimum %d: the test cannot tell them apart", want.Cost)
	}
	res, err = New(cfg, other).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || res.Best.Cost != wantOther.Cost {
		t.Fatalf("second run over the same dir: finished=%v best=%d want=%d", res.Finished, res.Best.Cost, wantOther.Cost)
	}
	if res.Table.Resumed != 0 {
		t.Fatalf("the single resolution resumed %d snapshots", res.Table.Resumed)
	}
}

// TestSimulationStoreErrorFailsRun: a checkpoint directory that cannot be
// opened (here, one under a regular file) fails Run before the first tick
// with the open error, instead of running a resolution that never
// checkpoints.
func TestSimulationStoreErrorFailsRun(t *testing.T) {
	cfg, factory, _ := fastConfig(19)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = filepath.Join(file, "ckpt")
	_, openErr := checkpoint.NewStore(cfg.CheckpointDir)
	if openErr == nil {
		t.Fatal("a store under a regular file opened")
	}
	res, err := New(cfg, factory).Run()
	if err == nil || err.Error() != openErr.Error() {
		t.Fatalf("Run error %v, want the open error %v", err, openErr)
	}
	if res.Ticks != 0 {
		t.Fatalf("Run stepped %d ticks before failing", res.Ticks)
	}
}

// TestSimulationAbsoluteThreshold: a threshold twice the root range forces
// duplication on every allocation after the first, and the run still
// completes correctly — the stress test of the §4.2 duplication rule.
func TestSimulationAbsoluteThreshold(t *testing.T) {
	cfg, factory, want := fastConfig(23)
	cfg.ThresholdFraction = 2 // everything is "below threshold"
	res, err := New(cfg, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || res.Best.Cost != want.Cost {
		t.Fatalf("all-duplicate run: finished=%v best=%d want=%d", res.Finished, res.Best.Cost, want.Cost)
	}
	if res.Counters.Duplications == 0 {
		t.Fatal("threshold never triggered duplication")
	}
	// Heavy duplication must show up as redundancy, and the run must
	// still finish — the paper accepts bounded redundancy as the price
	// of never starving the endgame.
	if res.Table2.RedundantRate <= 0 {
		t.Error("massive duplication produced zero measured redundancy")
	}
}

// TestHumanDuration covers the Table 2 formatting helper across scales.
func TestHumanDuration(t *testing.T) {
	cases := map[float64]string{
		30:                  "30.0 seconds",
		300:                 "5.0 minutes",
		2 * 3600:            "2.0 hours",
		25 * 86400:          "25.0 days",
		22 * 365.25 * 86400: "22.0 years",
	}
	for secs, want := range cases {
		if got := humanDuration(secs); got != want {
			t.Errorf("humanDuration(%v) = %q, want %q", secs, got, want)
		}
	}
}

// TestRenderTraceEdgeCases: empty traces and degenerate dimensions render
// without panicking.
func TestRenderTraceEdgeCases(t *testing.T) {
	if out := RenderTrace(nil, 10, 5); out == "" {
		t.Error("empty trace renders nothing")
	}
	trace := []TracePoint{{0, 0}, {1, 0}}
	if out := RenderTrace(trace, 10, 3); out == "" {
		t.Error("all-zero trace renders nothing")
	}
	if out := RenderTrace(trace, 0, 0); out == "" {
		t.Error("zero dims render nothing")
	}
}

// TestCPUSpecString covers the Table 1 row rendering.
func TestCPUSpecString(t *testing.T) {
	s := CPUSpec{Model: "P4", GHz: 2.8, Domain: "IUT-A (Lille1)", Count: 45}
	out := s.String()
	for _, want := range []string{"P4", "2.80", "IUT-A", "45"} {
		if !contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestSmallPool: the helper always returns the requested size across a
// range of inputs, with positive speeds.
func TestSmallPool(t *testing.T) {
	for _, n := range []int{1, 3, 7, 30, 100} {
		pool := SmallPool(n)
		want := n
		if want < 3 {
			want = 3
		}
		if got := PoolSize(pool); got != want {
			t.Errorf("SmallPool(%d) size = %d, want %d", n, got, want)
		}
		for _, s := range pool {
			if s.GHz <= 0 {
				t.Errorf("SmallPool(%d) has non-positive GHz", n)
			}
		}
	}
}

// TestCalibrateRateDegenerate: zero pools and walls fall back to a sane
// positive rate.
func TestCalibrateRateDegenerate(t *testing.T) {
	if r := CalibrateRate(nil, DefaultAvailability(), 1000, 60); r != 1 {
		t.Errorf("empty pool rate = %f, want fallback 1", r)
	}
	if r := CalibrateRate(Table1Pool(), DefaultAvailability(), 1000, 0); r != 1 {
		t.Errorf("zero wall rate = %f, want fallback 1", r)
	}
}

// TestFractionShape: the availability profile is non-negative, peaks once
// per day, and respects Base/Amplitude.
func TestFractionShape(t *testing.T) {
	m := DefaultAvailability()
	day := m.DaySeconds
	min, max := 1.0, 0.0
	for i := 0; i < 1000; i++ {
		f := m.Fraction(0, day*float64(i)/1000)
		if f < 0 {
			t.Fatalf("negative fraction at %d", i)
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if min < m.BaseFraction-1e-9 || min > m.BaseFraction+1e-9 {
		t.Errorf("floor = %f, want base %f", min, m.BaseFraction)
	}
	if max > m.BaseFraction+m.Amplitude+1e-9 {
		t.Errorf("peak = %f exceeds base+amplitude", max)
	}
	if max < m.BaseFraction+m.Amplitude*0.95 {
		t.Errorf("peak = %f never approaches base+amplitude %f", max, m.BaseFraction+m.Amplitude)
	}
}

// TestThresholdFractionComputation: the big.Int threshold derived from the
// fraction scales with the tree.
func TestThresholdFractionComputation(t *testing.T) {
	cfg, factory, _ := fastConfig(29)
	cfg.ThresholdFraction = 0.5
	sim := New(cfg, factory)
	// 12! = 479001600; half of it.
	_, total := sim.Table().Farmer(checkpoint.DefaultNamespace).Size()
	if total.Cmp(interval.NumInt64(479001600)) != 0 {
		t.Fatalf("root size = %s", total)
	}
}

// TestSimulationMulticorePoolScales: a pool of 4-core hosts runs the real
// shard engine per worker and finishes the same workload in fewer virtual
// ticks than the single-core pool, still proving the optimum — the
// "power scales with cores" contract of the multicore engine (DESIGN.md §7).
func TestSimulationMulticorePoolScales(t *testing.T) {
	cfg, factory, want := fastConfig(29)
	single, err := New(cfg, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _, _ := fastConfig(29)
	cfg2.Pool = MulticorePool(30, 4)
	multi, err := New(cfg2, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !single.Finished || !multi.Finished {
		t.Fatalf("runs did not finish: single=%v multi=%v", single.Finished, multi.Finished)
	}
	if multi.Best.Cost != want.Cost || single.Best.Cost != want.Cost {
		t.Fatalf("optima: single=%d multi=%d want=%d", single.Best.Cost, multi.Best.Cost, want.Cost)
	}
	if multi.Ticks >= single.Ticks {
		t.Fatalf("4-core pool took %d ticks, single-core %d — cores did not speed up the grid",
			multi.Ticks, single.Ticks)
	}
}
