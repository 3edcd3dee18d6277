package gridsim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// update regenerates testdata/*.golden from the current behaviour
// (`make golden`).
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current behaviour")

// renderResult prints every scalar of a Result that the simulator computes
// (the Figure 7 series and the big.Int redundancy pair are left out: the
// first is one point per tick, the second is folded into RedundantRate).
func renderResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ticks %d finished %v best %d\n", r.Ticks, r.Finished, r.Best.Cost)
	fmt.Fprintf(&b, "joins %d leaves %d crashes %d\n", r.Joins, r.Leaves, r.Crashes)
	fmt.Fprintf(&b, "counters %+v\n", r.Counters)
	fmt.Fprintf(&b, "table2 %+v\n", r.Table2)
	return b.String()
}

// renderMultiJobResult prints the service-level scalars plus, per job, the
// farmer's message counters (read off the table: the result keeps only the
// explored total, which moves when late folds are credited differently).
func renderMultiJobResult(r MultiJobResult, progress []jobs.Progress) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ticks %d finished %v\n", r.Ticks, r.Finished)
	fmt.Fprintf(&b, "joins %d leaves %d crashes %d\n", r.Joins, r.Leaves, r.Crashes)
	fmt.Fprintf(&b, "table %+v\n", r.Table)
	for _, p := range progress {
		c := p.Counters
		fmt.Fprintf(&b, "job %s %s best %d requests %d allocations %d checkpoints %d reports %d duplications %d expired %d\n",
			p.ID, p.State, p.BestCost, c.WorkRequests, c.WorkAllocations, c.WorkerCheckpoints, c.SolutionReports, c.Duplications, c.ExpiredOwners)
	}
	return b.String()
}

// TestSimGolden pins the exact counts of three small deterministic
// simulations — one flat, one tree with the endgame machinery armed, one
// multi-tenant — so a change to the fleet lifecycle (join, leave, the
// credit→budget→Advance step, the time-based checkpoint) is held to the
// same numbers tick for tick, inside `go test ./...`.
func TestSimGolden(t *testing.T) {
	single := func(subtrees int) func() (string, error) {
		return func() (string, error) {
			cfg, factory, _ := fastConfig(9)
			cfg.Subtrees = subtrees
			cfg.Endgame = subtrees > 0
			res, err := New(cfg, factory).Run()
			return renderResult(res), err
		}
	}
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"flat", single(0)},
		{"tree4-endgame", single(4)},
		{"multi-tenant", func() (string, error) {
			sim, err := NewMultiJob(MultiTenantScenario(99))
			if err != nil {
				return "", err
			}
			res, err := sim.Run()
			return renderMultiJobResult(res, sim.Table().List()), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
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
			if got != string(want) {
				t.Errorf("result drifted from %s:\n--- golden\n%s--- run\n%s", path, want, got)
			}
		})
	}
}
