// Package gridsim is the computational-grid substrate of this reproduction:
// a deterministic discrete-event simulator standing in for the paper's
// ≈1900 physical processors spread over 9 administrative domains (Table 1,
// Figure 6). It drives the real coordinator and real worker sessions under
// a virtual clock, models heterogeneous CPU speeds, non-dedicated hosts
// (cycle stealing: machines join and leave), and hard failures, and
// produces the paper's Table 2 execution statistics and the Figure 7
// availability trace.
//
// The coordinator is always a job table (internal/jobs): a single
// resolution is the table with one job, its root flat or under a farmer
// tree, and a multi-tenant service is the same simulator with several
// jobs (Config.Jobs), every host then running the multi-job worker
// session. There is one host loop either way.
//
// Substitution note (see DESIGN.md): the paper's statistics depend on the
// protocol and on the relative speeds and volatility of the pool — not on
// physical hardware. The simulator keeps all of those and replaces only the
// physics: exploration rates are scaled so a laptop-size instance plays the
// role of Ta056 at the paper's 25-day wall-clock scale.
package gridsim

import "fmt"

// CPUSpec is one row of the paper's Table 1: a homogeneous batch of
// processors inside one administrative domain.
type CPUSpec struct {
	// Model is the CPU model label ("P4", "AMD", "Celeron", "Xeon",
	// "P3").
	Model string
	// GHz is the clock frequency, the paper's only speed indicator; the
	// simulator makes exploration rate proportional to it.
	GHz float64
	// Domain is the administrative domain (cluster).
	Domain string
	// Count is the number of processors of this spec.
	Count int
	// Cores is the number of cores per processor slot. The paper's 2007
	// pool is single-core (zero means 1); a modern pool sets it higher
	// and each simulated host runs the real multicore shard engine: its
	// exploration rate and reported power both scale with Cores while the
	// farmer still sees one worker per host.
	Cores int
}

// String renders a Table 1-style row.
func (c CPUSpec) String() string {
	return fmt.Sprintf("%-8s %.2f GHz  %-22s %4d", c.Model, c.GHz, c.Domain, c.Count)
}

// Table1Pool returns the paper's computational pool verbatim: 24 specs, 9
// domains, 1889 processors in total (Grid5000 machines are bi-processor;
// Table 1 lists them as 2×N and we store the processor count).
func Table1Pool() []CPUSpec {
	return []CPUSpec{
		{"P4", 1.70, "IEEA-FIL (Lille1)", 24, 1},
		{"P4", 2.40, "IEEA-FIL (Lille1)", 48, 1},
		{"P4", 2.80, "IEEA-FIL (Lille1)", 59, 1},
		{"P4", 3.00, "IEEA-FIL (Lille1)", 27, 1},
		{"AMD", 1.30, "Polytech'Lille (Lille1)", 14, 1},
		{"Celeron", 2.40, "Polytech'Lille (Lille1)", 35, 1},
		{"Celeron", 0.80, "Polytech'Lille (Lille1)", 14, 1},
		{"Celeron", 2.00, "Polytech'Lille (Lille1)", 13, 1},
		{"Celeron", 2.20, "Polytech'Lille (Lille1)", 28, 1},
		{"P3", 1.20, "Polytech'Lille (Lille1)", 12, 1},
		{"P4", 3.20, "Polytech'Lille (Lille1)", 12, 1},
		{"P4", 1.60, "IUT-A (Lille1)", 22, 1},
		{"P4", 2.00, "IUT-A (Lille1)", 18, 1},
		{"P4", 2.80, "IUT-A (Lille1)", 45, 1},
		{"P4", 2.66, "IUT-A (Lille1)", 57, 1},
		{"P4", 3.00, "IUT-A (Lille1)", 41, 1},
		{"AMD", 2.20, "Bordeaux (Grid5000)", 2 * 47, 1},
		{"AMD", 2.20, "Lille (Grid5000)", 2 * 54, 1},
		{"Xeon", 2.40, "Rennes (Grid5000)", 2 * 64, 1},
		{"AMD", 2.20, "Rennes (Grid5000)", 2 * 64, 1},
		{"AMD", 2.00, "Sophia (Grid5000)", 2 * 100, 1},
		{"AMD", 2.00, "Sophia (Grid5000)", 2 * 107, 1},
		{"AMD", 2.20, "Toulouse (Grid5000)", 2 * 58, 1},
		{"AMD", 2.00, "Orsay (Grid5000)", 2 * 216, 1},
	}
}

// Table1Total is the paper's processor count.
const Table1Total = 1889

// PoolSize sums the processor counts of a pool.
func PoolSize(pool []CPUSpec) int {
	n := 0
	for _, s := range pool {
		n += s.Count
	}
	return n
}

// PoolDomains returns the distinct administrative domains in pool order.
func PoolDomains(pool []CPUSpec) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range pool {
		if !seen[s.Domain] {
			seen[s.Domain] = true
			out = append(out, s.Domain)
		}
	}
	return out
}

// SmallPool returns a reduced heterogeneous pool for tests and quick runs:
// three domains, mixed speeds, n processors total (n >= 3).
func SmallPool(n int) []CPUSpec {
	if n < 3 {
		n = 3
	}
	a := n / 3
	b := n / 3
	c := n - a - b
	return []CPUSpec{
		{"P4", 3.00, "alpha", a, 1},
		{"AMD", 2.20, "beta", b, 1},
		{"Celeron", 1.00, "gamma", c, 1},
	}
}

// MassivePool returns the paper's Table 1 pool topped up with an extra
// burst domain to exactly n processors (n ≥ Table1Total): the 2007 campus
// and Grid5000 domains verbatim, plus the cloud capacity a modern rerun
// would lease on top. It is the pool of the massive-grid scenario, sized
// so the farmer tracks roughly two thousand concurrent workers.
func MassivePool(n int) []CPUSpec {
	pool := Table1Pool()
	if extra := n - Table1Total; extra > 0 {
		pool = append(pool, CPUSpec{"Xeon", 2.40, "Cloud (burst)", extra, 1})
	}
	return pool
}

// MulticorePool returns a modern pool: the same three domains as SmallPool
// but every host has cores cores, so each simulated worker runs the shard
// engine and reports a cores-scaled power.
func MulticorePool(n, cores int) []CPUSpec {
	pool := SmallPool(n)
	for i := range pool {
		pool[i].Cores = cores
	}
	return pool
}
