// Package flowshop implements the permutation flowshop scheduling problem —
// the application of the paper's evaluation (§5): N jobs cross M machines in
// the same order, each machine handles one job at a time, and the objective
// is to minimize the makespan Cmax (eq. 15). It provides Taillard's (1993)
// benchmark instance generator (bit-exact, including the published seeds of
// the Ta001–Ta120 sets, so the famous Ta056 instance of the paper is
// reproducible), makespan evaluation, the classical one-machine and
// two-machine (Johnson) lower bounds, the NEH constructive heuristic and a
// Ruiz–Stützle iterated-greedy upper-bound provider (the paper's ref. [9]),
// and the bb.Problem adapter that plugs the whole thing into the grid B&B.
package flowshop

import (
	"fmt"
	"strings"
	"sync"
)

// Instance is a permutation flowshop instance: Proc[j][m] is the processing
// time of job j on machine m. Machines are crossed in index order.
type Instance struct {
	// Name is a human-readable identifier ("ta056", "rand-8x4", ...).
	Name string
	// Jobs is the number of jobs N.
	Jobs int
	// Machines is the number of machines M.
	Machines int
	// Proc holds the processing times, job-major. It must not change once
	// a Problem has been built over the instance.
	Proc [][]int64

	// The bounding operator's read-only tables (bounds.go), built by the
	// first NewProblem and shared by every Problem over this instance.
	tabOnce sync.Once
	tab     *tables
}

func (ins *Instance) tables() *tables {
	ins.tabOnce.Do(func() { ins.tab = buildTables(ins) })
	return ins.tab
}

// NewInstance validates and wraps raw processing times.
func NewInstance(name string, proc [][]int64) (*Instance, error) {
	if len(proc) == 0 {
		return nil, fmt.Errorf("flowshop: instance %q has no jobs", name)
	}
	m := len(proc[0])
	if m == 0 {
		return nil, fmt.Errorf("flowshop: instance %q has no machines", name)
	}
	for j, row := range proc {
		if len(row) != m {
			return nil, fmt.Errorf("flowshop: instance %q job %d has %d machines, want %d", name, j, len(row), m)
		}
		for mm, p := range row {
			if p < 0 {
				return nil, fmt.Errorf("flowshop: instance %q has negative time %d at job %d machine %d", name, p, j, mm)
			}
		}
	}
	return &Instance{Name: name, Jobs: len(proc), Machines: m, Proc: proc}, nil
}

// Makespan evaluates Cmax of the complete permutation (a slice of 0-based
// job indices covering every job exactly once). It panics on a malformed
// permutation, which always indicates a programming error.
func (ins *Instance) Makespan(perm []int) int64 {
	if len(perm) != ins.Jobs {
		panic(fmt.Sprintf("flowshop: permutation of length %d for %d jobs", len(perm), ins.Jobs))
	}
	c := make([]int64, ins.Machines)
	seen := make([]bool, ins.Jobs)
	for _, j := range perm {
		if j < 0 || j >= ins.Jobs || seen[j] {
			panic(fmt.Sprintf("flowshop: bad permutation entry %d", j))
		}
		seen[j] = true
		row := ins.Proc[j]
		c[0] += row[0]
		for m := 1; m < ins.Machines; m++ {
			if c[m] < c[m-1] {
				c[m] = c[m-1]
			}
			c[m] += row[m]
		}
	}
	return c[ins.Machines-1]
}

// PartialMakespan evaluates the completion time vector of a prefix sequence:
// heads[m] is the time machine m finishes its last prefix job. An empty
// prefix yields the zero vector. It is the building block of both the B&B
// state and the heuristics.
func (ins *Instance) PartialMakespan(prefix []int, heads []int64) []int64 {
	if heads == nil {
		heads = make([]int64, ins.Machines)
	} else {
		for m := range heads {
			heads[m] = 0
		}
	}
	for _, j := range prefix {
		row := ins.Proc[j]
		heads[0] += row[0]
		for m := 1; m < ins.Machines; m++ {
			if heads[m] < heads[m-1] {
				heads[m] = heads[m-1]
			}
			heads[m] += row[m]
		}
	}
	return heads
}

// TotalWork returns the sum of all processing times, used by heuristics for
// temperature calibration and by reports.
func (ins *Instance) TotalWork() int64 {
	var s int64
	for _, row := range ins.Proc {
		for _, p := range row {
			s += p
		}
	}
	return s
}

// String renders a short description.
func (ins *Instance) String() string {
	return fmt.Sprintf("%s (%d jobs x %d machines)", ins.Name, ins.Jobs, ins.Machines)
}

// Format renders the instance in the conventional benchmark text layout:
// a header line "jobs machines" followed by the machine-major matrix.
func (ins *Instance) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d\n", ins.Jobs, ins.Machines)
	for m := 0; m < ins.Machines; m++ {
		for j := 0; j < ins.Jobs; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", ins.Proc[j][m])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
