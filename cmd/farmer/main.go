// Command farmer runs the coordinator of a multi-process grid resolution
// over TCP: it owns INTERVALS and SOLUTION, serves pull-model workers
// (cmd/worker), checkpoints to two files, and prints the proven optimum
// when INTERVALS empties. If a checkpoint exists in -checkpoint-dir the
// farmer resumes from it — the paper's farmer fault tolerance (§4.1).
//
// Usage:
//
//	farmer -addr :4321 -instance ta056 -reduce-jobs 13 -reduce-machines 8 &
//	worker -addr host:4321 &   # as many as you like, anywhere
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("farmer: ")
	var (
		addr     = flag.String("addr", ":4321", "listen address")
		instance = flag.String("instance", "ta056", "Taillard instance")
		redJobs  = flag.Int("reduce-jobs", 0, "reduce to this many jobs")
		redMach  = flag.Int("reduce-machines", 0, "reduce to this many machines")
		ckptDir  = flag.String("checkpoint-dir", "farmer-checkpoints", "two-file snapshot directory")
		ckptSecs = flag.Int("checkpoint-period", 1800, "snapshot period in seconds (paper: 30 minutes)")
		leaseTTL = flag.Int("lease-ttl", 300, "seconds of silence before a worker is presumed dead")
		useNEH   = flag.Bool("neh", true, "prime SOLUTION with the NEH heuristic")
		statusIv = flag.Int("status-period", 10, "seconds between status lines")

		// Hostile-WAN hardening (DESIGN.md §10).
		readTimeout = flag.Int("read-timeout", 300, "seconds a connection may stay silent before eviction (0: no deadline)")
		maxConns    = flag.Int("max-conns", 0, "max simultaneous connections, evicting the most idle at the cap (0: unlimited)")
		maxMsg      = flag.Int64("max-msg-bytes", transport.DefaultMaxMessageBytes, "per-message byte limit (negative: unlimited)")
		tlsCert     = flag.String("tls-cert", "", "server certificate PEM (with -tls-key enables TLS)")
		tlsKey      = flag.String("tls-key", "", "server key PEM")
		tlsClientCA = flag.String("tls-client-ca", "", "require client certificates signed by this CA (certificate auth mode)")
		authToken   = flag.String("auth-token", "", "shared token workers must present (token auth mode)")
	)
	flag.Parse()

	ins, err := flowshop.TaillardNamed(*instance)
	if err != nil {
		log.Fatal(err)
	}
	if *redJobs > 0 || *redMach > 0 {
		j, m := *redJobs, *redMach
		if j == 0 {
			j = ins.Jobs
		}
		if m == 0 {
			m = ins.Machines
		}
		if ins, err = ins.Reduced(j, m); err != nil {
			log.Fatal(err)
		}
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

	so := transport.ServerOptions{
		ReadTimeout:     time.Duration(*readTimeout) * time.Second,
		MaxConns:        *maxConns,
		MaxMessageBytes: *maxMsg,
		Token:           *authToken,
		// Clients delta-encode intervals against the root
		// range — the tightest reference there is for this resolution.
		WireRef: nb.RootRange(),
	}
	if *tlsCert != "" || *tlsKey != "" {
		if so.TLS, err = transport.LoadServerTLS(*tlsCert, *tlsKey, *tlsClientCA); err != nil {
			log.Fatal(err)
		}
		log.Printf("TLS enabled (client CA: %v, token: %v)", *tlsClientCA != "", *authToken != "")
	}
	srv, err := transport.ServeWith(f, *addr, so)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("serving on %s", srv.Addr())

	ckptTicker := time.NewTicker(time.Duration(*ckptSecs) * time.Second)
	defer ckptTicker.Stop()
	statusTicker := time.NewTicker(time.Duration(*statusIv) * time.Second)
	defer statusTicker.Stop()
	for {
		select {
		case <-ckptTicker.C:
			if err := f.Checkpoint(); err != nil {
				log.Printf("checkpoint failed: %v", err)
			}
		case <-statusTicker.C:
			card, size := f.Size()
			best := f.Best()
			c := f.Counters()
			ss := srv.Stats()
			log.Printf("intervals=%d remaining=%s best=%s alloc=%d ckpt=%d nodes=%d rejected=%d evicted=%d",
				card, size, costString(best.Cost), c.WorkAllocations, c.WorkerCheckpoints, c.ExploredNodes,
				c.RejectedIntervals+c.RejectedReports+c.RejectedPowers, ss.Evicted)
			if f.Done() {
				if err := f.Checkpoint(); err != nil {
					log.Printf("final checkpoint failed: %v", err)
				}
				printResult(ins, f)
				return
			}
		}
	}
}

func costString(c int64) string {
	if c == int64(^uint64(0)>>1) {
		return "inf"
	}
	return fmt.Sprint(c)
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
