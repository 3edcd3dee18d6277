// Command worker joins a TCP farmer (cmd/farmer) or sub-farmer
// (cmd/subfarmer) as one or more B&B processes — the paper's worker side:
// pull-model messaging (works from behind firewalls and NATs), periodic
// interval checkpointing, immediate solution push. Interrupt or terminate
// it and it leaves gracefully, folding what it explored one last time; kill
// it outright and the farmer's lease mechanism recovers its intervals from
// their last checkpoint. If the coordinator goes away, the worker
// reconnects with jittered exponential backoff and a bounded retry budget,
// so a farmer restart is met by a trickle of staggered rejoins instead of
// a thundering herd.
//
// The instance configuration must match the farmer's — like the paper's
// deployment, problem data is distributed out of band and only intervals
// travel.
//
// Usage:
//
//	worker -addr farmerhost:4321 -instance ta056 -reduce-jobs 13 -reduce-machines 8 -procs 4 -cores 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/gridbb"
	"repro/internal/daemon"
	"repro/internal/flowshop"
	"repro/internal/transport"
	"repro/internal/worker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("worker: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:4321", "farmer address")
		instance = flag.String("instance", "ta056", "Taillard instance (must match the farmer)")
		redJobs  = flag.Int("reduce-jobs", 0, "reduce to this many jobs (must match the farmer)")
		redMach  = flag.Int("reduce-machines", 0, "reduce to this many machines (must match the farmer)")
		procs    = flag.Int("procs", 1, "B&B processes to host (the paper: one per processor)")
		cores    = flag.Int("cores", 1, "shard explorers per process (multicore engine; 1 = the paper's single explorer, 0 = all cores of the host)")
		bound    = flag.String("bound", "one", "bound: one, two, combined")
		update   = flag.Int64("update-nodes", 1<<16, "nodes between interval checkpoints")
		name     = flag.String("name", "", "worker name prefix (default host-pid)")
		retries  = flag.Int("max-retries", 10, "bounded reconnect attempts per process (progress resets the budget)")
		dial     = daemon.Dial(flag.CommandLine, "") // hostile-WAN hardening (DESIGN.md §10)

		// Wire-level speed (DESIGN.md §11).
		share = flag.Bool("share", true, "multiplex all -procs sessions over one physical connection per farmer address")
	)
	flag.Parse()

	ins, err := flowshop.TaillardReduced(*instance, *redJobs, *redMach)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := flowshop.ParseBound(*bound)
	if err != nil {
		log.Fatal(err)
	}
	prefix := daemon.Identity(*name, "")

	// Per-call deadline plus identity. Retries stay 0 at this layer: the
	// per-process reconnect loop below is the retry mechanism, with its
	// own jitter and budget.
	dialOpts, err := dial.Options()
	if err != nil {
		log.Fatal(err)
	}
	dialOpts.Share = *share

	ctx, stop := daemon.SignalContext(context.Background())
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < *procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := worker.Config{
				ID:                transport.WorkerID(fmt.Sprintf("%s-p%d", prefix, i)),
				Power:             1,
				AutoPower:         true, // measure the real rate, report it
				UpdatePeriodNodes: *update,
				Cores:             *cores,
			}
			// Per-process jitter source: two workers must never share a
			// backoff schedule, or a farmer restart turns every retry
			// round into a synchronized stampede. The schedule itself
			// (full jitter over an exponential step) is the shared
			// transport.Backoff every reconnect path uses.
			backoff := transport.Backoff{
				Rng: rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<16 ^ int64(i))),
			}
			start := time.Now()
			attempt := 0
			var explored int64
			for {
				// RunRemoteWorker runs the classic single explorer when
				// cores is 1.
				res, err := gridbb.RunRemoteWorker(ctx, *addr, dialOpts, cfg, func() gridbb.Problem {
					return flowshop.NewProblem(ins, kind, flowshop.PairsAll)
				})
				explored += res.Stats.Explored
				if ctx.Err() != nil && err != nil {
					// err carries the final fold's failure, if any, beside
					// the cancellation.
					log.Printf("process %d: left on a final fold: %v", i, err)
				}
				if err == nil || ctx.Err() != nil {
					log.Printf("process %d done in %s: explored %d nodes, %d updates, local best %s",
						i, time.Since(start).Round(time.Second), explored, res.Updates, daemon.Cost(res.Best.Cost))
					return
				}
				// A run that made progress proves the coordinator was
				// reachable: the failure is fresh, so the retry budget
				// and the backoff start over.
				if res.Stats.Explored > 0 {
					attempt = 0
					backoff.Reset()
				}
				attempt++
				if attempt > *retries {
					log.Printf("process %d: giving up after %d attempts: %v", i, attempt-1, err)
					return
				}
				d := backoff.Next()
				log.Printf("process %d: %v — reconnecting in %s (attempt %d/%d)", i, err, d.Round(time.Millisecond), attempt, *retries)
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
		}(i)
	}
	wg.Wait()
}
