package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates testdata/*.trace from the current behaviour
// (`make golden`). A refactor must never need it: the traces are the
// pinned behaviour every harness change is held to.
var update = flag.Bool("update", false, "rewrite testdata/*.trace from the current behaviour")

// preRefactorGoldens are the eleven named scenarios whose traces were
// committed from the three-driver harness, before the collapse onto one
// grid: the refactor is behaviour-preserving iff they never change.
var preRefactorGoldens = []string{
	"quiet-grid", "churny-grid", "farmer-failover", "multicore-churn",
	"packed-grid", "tree-churn", "endgame-churn", "stalled-coordinator",
	"partitioned-ring", "ring-restart", "multi-job-churn",
}

// TestGoldenTraces diffs every named scenario's event trace against its
// committed golden: the double-run checks prove a run reproduces itself,
// this proves it reproduces the run the goldens were cut from.
func TestGoldenTraces(t *testing.T) {
	traces := make(map[string][]string)
	for _, sc := range GridScenarios() {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		traces[sc.Name] = rep.Trace
	}
	for _, sc := range RingScenarios() {
		rep, err := RunRing(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		traces[sc.Name] = rep.Trace
	}
	mj := MultiJobChurn()
	rep, err := RunMultiJob(mj)
	if err != nil {
		t.Fatalf("%s: %v", mj.Name, err)
	}
	traces[mj.Name] = rep.Trace

	for _, name := range preRefactorGoldens {
		trace, ok := traces[name]
		if !ok {
			t.Errorf("%s: golden listed but no scenario of that name ran", name)
			continue
		}
		t.Run(name, func(t *testing.T) { checkGolden(t, name, trace) })
	}
}

// checkGolden compares a trace with testdata/<name>.trace line by line,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name string, trace []string) {
	t.Helper()
	path := filepath.Join("testdata", name+".trace")
	got := strings.Join(trace, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < len(trace) && i < len(wantLines); i++ {
		if trace[i] != wantLines[i] {
			t.Fatalf("trace diverges from %s at line %d:\n  golden: %s\n  run:    %s", path, i+1, wantLines[i], trace[i])
		}
	}
	t.Fatalf("trace has %d lines, %s has %d", len(trace), path, len(wantLines))
}
