// Job specifications: the declarative form of "which tree is this job
// exploring". A Spec travels over the submission API as JSON and is small
// enough to persist next to a job's checkpoint, so a restarted service can
// rebuild the exact problem instance and resume the resolution from its
// interval file.
package jobs

import (
	"fmt"

	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/tsp"
)

// Spec names a problem instance by generator parameters rather than by
// payload: every domain in this repo builds instances deterministically
// from a seed, which keeps the submission message tiny and makes a spec
// reproducible anywhere.
type Spec struct {
	// Domain selects the problem family: "flowshop", "tsp", "qap" or
	// "knapsack".
	Domain string `json:"domain"`
	// Jobs and Machines size a flowshop instance (Taillard generator).
	Jobs     int `json:"jobs,omitempty"`
	Machines int `json:"machines,omitempty"`
	// N sizes a tsp, qap or knapsack instance.
	N int `json:"n,omitempty"`
	// Size is the tsp board side; Max the qap flow/distance bound. Zero
	// picks a sensible default.
	Size int64 `json:"size,omitempty"`
	Max  int64 `json:"max,omitempty"`
	// Seed drives the instance generator.
	Seed int64 `json:"seed"`
	// InitialUpper primes the job's SOLUTION file (the paper's run 2
	// protocol). Zero means no prime (bb.Infinity).
	InitialUpper int64 `json:"initial_upper,omitempty"`
	// Owner attributes the job to a user for the per-user admission cap.
	Owner string `json:"owner,omitempty"`
	// Weight scales the job's fair share of the fleet; zero means 1.
	Weight int64 `json:"weight,omitempty"`
	// Problem, when set, is the instance itself and the generator fields
	// are ignored: an in-process driver submits whatever problem it was
	// handed. It never travels over the submission API.
	Problem func() bb.Problem `json:"-"`
}

// Factory compiles the spec into a problem constructor, or explains why it
// cannot. The constructor is deterministic: every call yields an identical
// instance, so workers anywhere rebuild the same tree.
func (s Spec) Factory() (func() bb.Problem, error) {
	if s.Problem != nil {
		return s.Problem, nil
	}
	switch s.Domain {
	case "flowshop":
		if s.Jobs <= 0 || s.Machines <= 0 {
			return nil, fmt.Errorf("jobs: flowshop spec needs jobs and machines, got %dx%d", s.Jobs, s.Machines)
		}
		ins := flowshop.Taillard(s.Jobs, s.Machines, s.Seed)
		return func() bb.Problem {
			return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		}, nil
	case "tsp":
		if s.N <= 0 {
			return nil, fmt.Errorf("jobs: tsp spec needs n, got %d", s.N)
		}
		size := s.Size
		if size <= 0 {
			size = 1000
		}
		ins := tsp.RandomEuclidean(s.N, size, s.Seed)
		return func() bb.Problem { return tsp.NewProblem(ins) }, nil
	case "qap":
		if s.N <= 0 {
			return nil, fmt.Errorf("jobs: qap spec needs n, got %d", s.N)
		}
		max := s.Max
		if max <= 0 {
			max = 20
		}
		ins := qap.Random(s.N, max, s.Seed)
		return func() bb.Problem { return qap.NewProblem(ins) }, nil
	case "knapsack":
		if s.N <= 0 {
			return nil, fmt.Errorf("jobs: knapsack spec needs n, got %d", s.N)
		}
		ins := knapsack.Random(s.N, s.Seed)
		return func() bb.Problem { return knapsack.NewProblem(ins) }, nil
	default:
		return nil, fmt.Errorf("jobs: unknown domain %q", s.Domain)
	}
}
