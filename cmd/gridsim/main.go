// Command gridsim replays the paper's experiment on the simulated national
// grid: the Table 1 pool of 1889 processors across 9 administrative
// domains, a Figure 7-style availability profile, cycle-stealing churn and
// hard failures — solving a reduced Taillard instance that plays the role
// of Ta056 at the paper's 25-day scale (see DESIGN.md for the
// substitution). It prints the Table 2 statistics block next to the
// paper's values, the Table 3 ranking, and the Figure 7 trace.
//
// Usage:
//
//	gridsim                       # paper-scale defaults (takes ~2 minutes)
//	gridsim -fast                 # small pool, seconds
//	gridsim -jobs 13 -machines 8 -days 10 -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/gridsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridsim: ")
	var (
		instance = flag.String("instance", "ta056", "Taillard instance to reduce")
		jobs     = flag.Int("jobs", 14, "reduced job count")
		machines = flag.Int("machines", 8, "reduced machine count")
		days     = flag.Float64("days", 25, "target virtual wall-clock, days")
		seed     = flag.Int64("seed", 1, "simulation seed")
		fast     = flag.Bool("fast", false, "small pool, short day: finishes in seconds")
		prime    = flag.Bool("prime", true, "prime SOLUTION like the paper's run 2 (best known + 1)")
		ckptDir  = flag.String("checkpoint-dir", "", "write real farmer snapshots under this directory (in its default/ job namespace)")
		traceCSV = flag.String("trace-csv", "", "dump the Figure 7 series (seconds,active) to this CSV file")
		subtrees = flag.Int("subtrees", 0, "coordinate through a 2-level farmer tree of this many sub-farmers (0: the paper's flat farmer)")
	)
	flag.Parse()

	full, err := flowshop.TaillardNamed(*instance)
	if err != nil {
		log.Fatal(err)
	}
	ins, err := full.Reduced(*jobs, *machines)
	if err != nil {
		log.Fatal(err)
	}
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	log.Printf("instance %s standing in for %s", ins, full)

	// Measure the sequential workload once: it calibrates the virtual
	// exploration rate and gives the run-2 initial bound.
	log.Printf("measuring sequential workload...")
	seqStart := time.Now()
	seq, seqStats := bb.Solve(factory(), bb.Infinity)
	log.Printf("sequential optimum %d, %d nodes (%s)", seq.Cost, seqStats.Explored, time.Since(seqStart).Round(time.Millisecond))

	var cfg gridsim.Config
	if *fast {
		cfg = gridsim.FastScenario(*seed, seqStats.Explored*12/10, *days/5)
	} else {
		cfg = gridsim.PaperScenario(*seed, seqStats.Explored*12/10, *days)
	}
	if *prime {
		cfg.InitialUpper = seq.Cost + 1
	}
	cfg.CheckpointDir = *ckptDir
	cfg.Subtrees = *subtrees

	log.Printf("simulating on %d processors in %d domains...",
		gridsim.PoolSize(cfg.Pool), len(gridsim.PoolDomains(cfg.Pool)))
	start := time.Now()
	res, err := gridsim.New(cfg, factory).Run()
	if err != nil {
		log.Fatal(err)
	}
	if !res.Finished {
		log.Fatalf("simulation hit MaxTicks after %d ticks", res.Ticks)
	}
	log.Printf("simulation finished in %s real time (%d ticks)", time.Since(start).Round(time.Millisecond), res.Ticks)

	fmt.Printf("\noptimal makespan: %d", res.Best.Cost)
	if res.Best.Cost == seq.Cost {
		fmt.Printf(" (matches the sequential proof)")
	}
	fmt.Println()
	fmt.Printf("churn: %d joins, %d graceful leaves, %d crashes\n\n", res.Joins, res.Leaves, res.Crashes)

	fmt.Println("=== Table 2: execution statistics ===")
	fmt.Println(res.Table2.RenderComparison())

	fmt.Println("=== Table 3: famous exact resolutions ===")
	fmt.Println(gridsim.RenderTable3(gridsim.Table3(res.Table2.TotalCPUSeconds)))

	fmt.Println("=== Figure 7: processors over time ===")
	fmt.Println(gridsim.RenderTrace(res.Trace, 100, 12))
	avg, max := gridsim.TraceStats(res.Trace)
	fmt.Printf("trace: average %.0f, peak %d of %d (paper: 328 avg, 1195 peak of 1889)\n",
		avg, max, gridsim.PoolSize(cfg.Pool))

	if *traceCSV != "" {
		if err := writeTraceCSV(*traceCSV, res.Trace); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d trace points to %s", len(res.Trace), *traceCSV)
	}
}

// writeTraceCSV dumps the availability series for external plotting.
func writeTraceCSV(path string, trace []gridsim.TracePoint) error {
	var b strings.Builder
	b.WriteString("seconds,active\n")
	for _, p := range trace {
		fmt.Fprintf(&b, "%.0f,%d\n", p.TimeSeconds, p.Active)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
