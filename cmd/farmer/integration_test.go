package main

import (
	"bytes"
	"context"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/harness"
	"repro/internal/transport"
	"repro/internal/worker"
)

// reducedTa056 is the 11x6 reduction of the paper's instance; its optimum
// (842) is asserted independently in TestReducedOptimumOracle.
func reducedTa056(t *testing.T) *flowshop.Instance {
	t.Helper()
	ins, err := flowshop.TaillardNamed("ta056")
	if err != nil {
		t.Fatal(err)
	}
	if ins, err = ins.Reduced(11, 6); err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestFarmerRecoveryDeterministic is the §4.1 fault-tolerance story the old
// process-level test probed with wall-clock sleeps and hoped-for kill
// timing: here the same protocol code runs under the deterministic chaos
// harness — seeded message loss, a mid-run worker crash with rejoin, a
// farmer restart from its checkpoint files — and the run is replayed to the
// byte. The optimum must still be the independently asserted 842.
func TestFarmerRecoveryDeterministic(t *testing.T) {
	ins := reducedTa056(t)
	sc := harness.Scenario{
		Name: "farmer-binary-recovery",
		Factory: func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		},
		FarmerRestarts: []int{6},
		Fleet: harness.Fleet{
			Seed:              6,
			Workers:           3,
			UpdatePeriodNodes: 256,
			TickBudget:        500,
			LeaseTTLTicks:     2,
			CheckpointEvery:   3,
			DropReplyPct:      5,
			Kills:             []harness.KillEvent{{Tick: 4, Slot: 1, RejoinAfter: 3}},
		},
	}
	rep, err := harness.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("VIOLATION: %s", v)
	}
	if !rep.Finished {
		t.Fatalf("resolution did not finish in %d ticks", rep.Ticks)
	}
	if rep.Best.Cost != 842 {
		t.Fatalf("optimal makespan %d, want 842", rep.Best.Cost)
	}
	if rep.Kills == 0 || rep.Restarts != 1 {
		t.Fatalf("fault schedule did not fire: kills=%d restarts=%d (ticks=%d)", rep.Kills, rep.Restarts, rep.Ticks)
	}
	again, err := harness.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Trace) != len(rep.Trace) {
		t.Fatalf("replay diverged: %d vs %d events", len(again.Trace), len(rep.Trace))
	}
	for i := range rep.Trace {
		if rep.Trace[i] != again.Trace[i] {
			t.Fatalf("replay diverged at event %d:\n  %s\n  %s", i, rep.Trace[i], again.Trace[i])
		}
	}
}

// syncBuffer collects subprocess output from its writer goroutine while the
// test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestFarmerWorkerBinaries is the deployment smoke test: the real farmer
// and worker binaries as separate OS processes talking TCP. The farmer
// binds port 0 and the test reads the chosen address from its log (the old
// fixed high port collided with whatever else ran on the machine); one
// worker is killed mid-run — whether the kill lands before or after its
// intervals complete, the farmer must still prove the optimum. The
// protocol-level recovery guarantees are asserted deterministically in
// TestFarmerRecoveryDeterministic; this test only proves the binaries wire
// up.
func TestFarmerWorkerBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	dir := t.TempDir()
	farmerBin := filepath.Join(dir, "farmer")
	workerBin := filepath.Join(dir, "worker")
	for _, b := range []struct{ out, pkg string }{
		{farmerBin, "repro/cmd/farmer"},
		{workerBin, "repro/cmd/worker"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}

	args := []string{
		"-instance", "ta056", "-reduce-jobs", "11", "-reduce-machines", "6",
	}
	farmerOut := &syncBuffer{}
	farmer := exec.Command(farmerBin, append([]string{
		"-addr", "127.0.0.1:0",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-lease-ttl", "2",
		"-status-period", "1",
	}, args...)...)
	farmer.Stdout = farmerOut
	farmer.Stderr = farmerOut
	if err := farmer.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if farmer.Process != nil {
			farmer.Process.Kill()
			farmer.Wait()
		}
	}()

	// The farmer logs "serving on <addr>" once bound; poll instead of
	// sleeping a hopeful fixed delay.
	addrRe := regexp.MustCompile(`serving on (\S+)`)
	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(farmerOut.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("farmer never bound; output:\n%s", farmerOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	workerArgs := append([]string{"-addr", addr, "-update-nodes", "2000"}, args...)
	w1 := exec.Command(workerBin, append(workerArgs, "-name", "w1")...)
	w1.Stdout = os.Stderr
	w1.Stderr = os.Stderr
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill w1 shortly after it starts; the lease mechanism recovers its
	// interval if the kill lands mid-work.
	go func() {
		time.Sleep(700 * time.Millisecond)
		w1.Process.Kill()
		w1.Wait()
	}()

	w2 := exec.Command(workerBin, append(workerArgs, "-name", "w2", "-procs", "2")...)
	w2.Stdout = os.Stderr
	w2.Stderr = os.Stderr
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if w2.Process != nil {
			w2.Process.Kill()
		}
	}()

	// Wait for the farmer to declare completion (it exits by itself).
	done := make(chan error, 1)
	go func() { done <- farmer.Wait() }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatalf("farmer did not finish; output so far:\n%s", farmerOut.String())
	}
	w2.Wait()

	out := farmerOut.String()
	if !strings.Contains(out, "RESOLUTION COMPLETE") {
		t.Fatalf("no completion banner in farmer output:\n%s", out)
	}
	if !strings.Contains(out, "optimal makespan: 842") {
		// 842 is the sequential optimum of ta056 reduced to 11x6,
		// asserted independently in TestReducedOptimumOracle.
		t.Fatalf("unexpected optimum in farmer output:\n%s", out)
	}
}

// TestTreeBinaries is the 3-tier deployment smoke test: root farmer,
// sub-farmer and workers as separate OS processes over TCP. The workers
// talk only to the sub-farmer; the root sees one "worker" (the sub-farmer)
// and must still print the proven optimum. Note what the sub-farmer is NOT
// given: any instance configuration — the mid tier is pure interval
// algebra.
func TestTreeBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	dir := t.TempDir()
	farmerBin := filepath.Join(dir, "farmer")
	subBin := filepath.Join(dir, "subfarmer")
	workerBin := filepath.Join(dir, "worker")
	for _, b := range []struct{ out, pkg string }{
		{farmerBin, "repro/cmd/farmer"},
		{subBin, "repro/cmd/subfarmer"},
		{workerBin, "repro/cmd/worker"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}

	args := []string{
		"-instance", "ta056", "-reduce-jobs", "11", "-reduce-machines", "6",
	}
	farmerOut := &syncBuffer{}
	farmer := exec.Command(farmerBin, append([]string{
		"-addr", "127.0.0.1:0",
		"-checkpoint-dir", filepath.Join(dir, "root-ckpt"),
		"-lease-ttl", "5",
		"-status-period", "1",
	}, args...)...)
	farmer.Stdout = farmerOut
	farmer.Stderr = farmerOut
	if err := farmer.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if farmer.Process != nil {
			farmer.Process.Kill()
			farmer.Wait()
		}
	}()
	rootAddr := awaitAddr(t, farmerOut, regexp.MustCompile(`serving on (\S+)`))

	subOut := &syncBuffer{}
	sub := exec.Command(subBin,
		"-root", rootAddr,
		"-addr", "127.0.0.1:0",
		"-checkpoint-dir", filepath.Join(dir, "sub-ckpt"),
		"-update-period", "1",
		"-lease-ttl", "3",
		"-status-period", "1",
	)
	sub.Stdout = subOut
	sub.Stderr = subOut
	if err := sub.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if sub.Process != nil {
			sub.Process.Kill()
			sub.Wait()
		}
	}()
	subAddr := awaitAddr(t, subOut, regexp.MustCompile(`serving subtree .* on (\S+),`))

	w := exec.Command(workerBin, append([]string{
		"-addr", subAddr, "-update-nodes", "2000", "-procs", "2", "-name", "tw",
	}, args...)...)
	w.Stdout = os.Stderr
	w.Stderr = os.Stderr
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if w.Process != nil {
			w.Process.Kill()
		}
	}()

	done := make(chan error, 1)
	go func() { done <- farmer.Wait() }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatalf("farmer did not finish; farmer output:\n%s\nsubfarmer output:\n%s", farmerOut.String(), subOut.String())
	}
	w.Wait()

	out := farmerOut.String()
	if !strings.Contains(out, "optimal makespan: 842") {
		t.Fatalf("unexpected optimum in farmer output:\n%s\nsubfarmer output:\n%s", out, subOut.String())
	}
}

// awaitAddr polls a process's log for its bound address.
func awaitAddr(t *testing.T, buf *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	return awaitAfter(t, buf, 0, re)
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// cmd/farmer -> repo root is two levels up.
	return filepath.Dir(filepath.Dir(dir))
}

// startDaemon starts bin with args, its output collected for polling; the
// process is killed when the test ends if it is still running.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) // a no-op once it has exited
	return cmd, out
}

// stopBySignal sends SIGTERM and requires a clean exit (status 0).
func stopBySignal(t *testing.T, cmd *exec.Cmd, out *syncBuffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s did not exit cleanly on SIGTERM: %v\n%s", cmd.Path, err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after SIGTERM:\n%s", cmd.Path, out.String())
	}
}

// awaitExit waits for a daemon to finish on its own.
func awaitExit(t *testing.T, cmd *exec.Cmd, out *syncBuffer) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v\n%s", cmd.Path, err, out.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("%s did not finish; output so far:\n%s", cmd.Path, out.String())
	}
}

// cancelOnFold cancels its worker's context once a fold is acknowledged.
type cancelOnFold struct {
	transport.Coordinator
	cancel context.CancelFunc
}

func (c cancelOnFold) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	reply, err := c.Coordinator.UpdateInterval(req)
	if err == nil {
		c.cancel()
	}
	return reply, err
}

// foldOnce runs one in-process worker on the 11x6 reduction against the
// coordinator at addr until its first fold is acknowledged; it then leaves
// with a final fold, so the resolution is left part-explored whatever the
// machine's speed (the whole proof is a few thousand nodes).
func foldOnce(t *testing.T, addr string) {
	t.Helper()
	ins := reducedTa056(t)
	client, err := transport.DialWith(addr, transport.DialOptions{Policy: transport.Policy{Timeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := worker.Config{ID: "fold-once", Power: 1, UpdatePeriodNodes: 200, StepSize: 100}
	res, err := worker.Run(ctx, cfg, cancelOnFold{client, cancel},
		flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll))
	if err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	if res.Updates == 0 || res.Stats.Explored == 0 {
		t.Fatalf("worker left without folding: %+v", res)
	}
}

// awaitAfter polls a process's log, past its first skip bytes, for re.
func awaitAfter(t *testing.T, buf *syncBuffer, skip int, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := re.FindStringSubmatch(buf.String()[skip:]); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v never appeared; output:\n%s", re, buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// atMost reports whether the decimal a is at most the decimal b.
func atMost(t *testing.T, a, b string) bool {
	t.Helper()
	x, ok1 := new(big.Int).SetString(a, 10)
	y, ok2 := new(big.Int).SetString(b, 10)
	if !ok1 || !ok2 {
		t.Fatalf("not decimals: %q, %q", a, b)
	}
	return x.Cmp(y) <= 0
}

// TestFarmerSIGTERMCheckpoints: the farmer binary, whose periodic snapshot
// is an hour away, is stopped by SIGTERM after a worker folded. It must
// exit 0 after a final checkpoint, so a restart resumes with no more
// numbers left than its last status line reported, and the resumed run
// still proves the optimum.
func TestFarmerSIGTERMCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	dir := t.TempDir()
	farmerBin := buildDaemon(t, dir, "farmer")
	workerBin := buildDaemon(t, dir, "worker")
	args := []string{
		"-addr", "127.0.0.1:0", "-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-checkpoint-period", "3600", "-status-period", "1",
		"-instance", "ta056", "-reduce-jobs", "11", "-reduce-machines", "6",
	}
	first, out := startDaemon(t, farmerBin, args...)
	foldOnce(t, awaitAddr(t, out, regexp.MustCompile(`serving on (\S+)`)))
	// The first status line after the fold is the farmer's own account of
	// what is left.
	remaining := awaitAfter(t, out, len(out.String()), regexp.MustCompile(`intervals=\d+ remaining=(\d+)`))
	stopBySignal(t, first, out)

	second, out := startDaemon(t, farmerBin, args...)
	left := awaitAddr(t, out, regexp.MustCompile(`resumed from checkpoint: \d+ intervals, (\d+) numbers left`))
	if !atMost(t, left, remaining) {
		t.Fatalf("resumed with %s numbers left, but the last status line before SIGTERM reported %s", left, remaining)
	}
	addr := awaitAddr(t, out, regexp.MustCompile(`serving on (\S+)`))
	w := exec.Command(workerBin, "-addr", addr, "-update-nodes", "2000",
		"-instance", "ta056", "-reduce-jobs", "11", "-reduce-machines", "6")
	w.Stdout = os.Stderr
	w.Stderr = os.Stderr
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Wait()
	awaitExit(t, second, out)
	if !strings.Contains(out.String(), "optimal makespan: 842") {
		t.Fatalf("resumed farmer did not prove 842:\n%s", out.String())
	}
}

// TestSubFarmerSIGTERMCheckpoints is TestTreeBinaries with a SIGTERM to the
// sub-farmer mid-run: it must exit 0 after its stop path (a fold to the
// root, then a final checkpoint), a restart must resume from that
// checkpoint, and the root must still prove the optimum. The SIGTERM lands
// an hour inside the first run's update period, so only a stop fold that
// ignores the period lets the root count the nodes the fleet explored.
func TestSubFarmerSIGTERMCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	dir := t.TempDir()
	farmerBin := buildDaemon(t, dir, "farmer")
	subBin := buildDaemon(t, dir, "subfarmer")
	workerBin := buildDaemon(t, dir, "worker")
	root, rootOut := startDaemon(t, farmerBin,
		"-addr", "127.0.0.1:0", "-checkpoint-dir", filepath.Join(dir, "root-ckpt"),
		"-lease-ttl", "5", "-status-period", "1",
		"-instance", "ta056", "-reduce-jobs", "11", "-reduce-machines", "6")
	rootAddr := awaitAddr(t, rootOut, regexp.MustCompile(`serving on (\S+)`))
	subArgs := func(updatePeriod string) []string {
		return []string{
			"-root", rootAddr,
			"-addr", "127.0.0.1:0", "-checkpoint-dir", filepath.Join(dir, "sub-ckpt"),
			"-checkpoint-period", "3600", "-update-period", updatePeriod, "-lease-ttl", "3", "-status-period", "1",
		}
	}
	rootNodes := regexp.MustCompile(` nodes=(\d+) `)
	sub, subOut := startDaemon(t, subBin, subArgs("3600")...)
	foldOnce(t, awaitAddr(t, subOut, regexp.MustCompile(`serving subtree .* on (\S+),`)))
	before := awaitAfter(t, rootOut, len(rootOut.String()), rootNodes)
	stopBySignal(t, sub, subOut)
	if after := awaitAfter(t, rootOut, len(rootOut.String()), rootNodes); atMost(t, after, before) {
		t.Fatalf("root counts %s nodes after the sub-farmer's SIGTERM, %s before: the stop path did not fold\nsubfarmer output:\n%s",
			after, before, subOut.String())
	}

	sub, subOut = startDaemon(t, subBin, subArgs("1")...)
	awaitAfter(t, subOut, 0, regexp.MustCompile(`(resumed from checkpoint)`))
	w := exec.Command(workerBin, "-addr", awaitAddr(t, subOut, regexp.MustCompile(`serving subtree .* on (\S+),`)),
		"-update-nodes", "2000", "-procs", "2",
		"-instance", "ta056", "-reduce-jobs", "11", "-reduce-machines", "6")
	w.Stdout = os.Stderr
	w.Stderr = os.Stderr
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Wait()
	awaitExit(t, root, rootOut)
	if !strings.Contains(rootOut.String(), "optimal makespan: 842") {
		t.Fatalf("root did not prove 842:\n%s\nsubfarmer output:\n%s", rootOut.String(), subOut.String())
	}
}
