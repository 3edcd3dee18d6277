// Command farmer runs the coordinator of a multi-process grid resolution
// over TCP: it owns INTERVALS and SOLUTION, serves pull-model workers
// (cmd/worker), checkpoints to two files, and prints the proven optimum
// when INTERVALS empties. If a checkpoint exists in -checkpoint-dir the
// farmer resumes from it — the paper's farmer fault tolerance (§4.1).
// SIGINT or SIGTERM stops it after a final checkpoint, so a restart loses
// nothing.
//
// Usage:
//
//	farmer -addr :4321 -instance ta056 -reduce-jobs 13 -reduce-machines 8 &
//	worker -addr host:4321 &   # as many as you like, anywhere
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/farmer"
	"repro/internal/flowshop"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("farmer: ")
	var (
		serve    = daemon.Serve(flag.CommandLine, ":4321", "listen address")
		instance = flag.String("instance", "ta056", "Taillard instance")
		redJobs  = flag.Int("reduce-jobs", 0, "reduce to this many jobs")
		redMach  = flag.Int("reduce-machines", 0, "reduce to this many machines")
		ckptDir  = flag.String("checkpoint-dir", "farmer-checkpoints", "two-file snapshot directory")
		ckpt     = daemon.NewPeriod(flag.CommandLine, "checkpoint-period", 1800, "snapshot period in seconds (paper: 30 minutes)")
		leaseTTL = flag.Int("lease-ttl", 300, "seconds of silence before a worker is presumed dead")
		useNEH   = flag.Bool("neh", true, "prime SOLUTION with the NEH heuristic")
		status   = daemon.NewPeriod(flag.CommandLine, "status-period", 10, "seconds between status lines")
	)
	daemon.Parse(flag.CommandLine, ckpt, status)

	ins, err := flowshop.TaillardReduced(*instance, *redJobs, *redMach)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("instance %s", ins)

	store, err := checkpoint.NewStore(*ckptDir)
	if err != nil {
		log.Fatal(err)
	}
	nb := core.NewNumbering(flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll).Shape())
	opts := []farmer.Option{
		farmer.WithLeaseTTL(time.Duration(*leaseTTL) * time.Second),
	}
	if *useNEH && !store.Exists() {
		_, cmax := flowshop.NEH(ins)
		opts = append(opts, farmer.WithInitialBest(cmax+1, nil))
		log.Printf("SOLUTION primed with NEH+1 = %d", cmax+1)
	}
	f, err := farmer.Restore(nb.RootRange(), store, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if store.Exists() {
		card, size := f.Size()
		log.Printf("resumed from checkpoint: %d intervals, %s numbers left", card, size)
	}

	// Clients delta-encode intervals against the root range — the
	// tightest reference there is for this resolution.
	srv, err := serve.Listen(f, nb.RootRange())
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("serving on %s", srv.Addr())

	done, err := daemon.Run(context.Background(), daemon.Loop{
		Checkpoint:      f.Checkpoint,
		CheckpointEvery: ckpt.Duration(),
		StatusEvery:     status.Duration(),
		Status: func() bool {
			card, size := f.Size()
			c := f.Counters()
			log.Printf("intervals=%d remaining=%s best=%s alloc=%d ckpt=%d nodes=%d rejected=%d evicted=%d",
				card, size, daemon.Cost(f.Best().Cost), c.WorkAllocations, c.WorkerCheckpoints, c.ExploredNodes,
				c.RejectedIntervals+c.RejectedReports+c.RejectedPowers, srv.Stats().Evicted)
			return f.Done()
		},
	})
	if done {
		printResult(ins, f)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func printResult(ins *flowshop.Instance, f *farmer.Farmer) {
	best := f.Best()
	fmt.Printf("RESOLUTION COMPLETE\noptimal makespan: %d (with proof of optimality)\n", best.Cost)
	if best.Path != nil {
		if perm, err := flowshop.PermutationOfPath(ins.Jobs, best.Path); err == nil {
			fmt.Print("schedule (1-based):")
			for _, j := range perm {
				fmt.Printf(" %d", j+1)
			}
			fmt.Println()
		}
	}
	red := f.Redundancy()
	fmt.Printf("redundancy: %.3f%%\n", 100*red.Rate())
}
