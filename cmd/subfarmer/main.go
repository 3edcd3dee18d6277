// Command subfarmer runs the mid tier of a hierarchical farmer tree
// (DESIGN.md §9): it connects to a root farmer (cmd/farmer) as one worker,
// serves its own fleet of workers (cmd/worker) over the unchanged
// farmer–worker protocol, aggregates the fleet into one interval fold and
// one power, and asks the root for a fresh sub-range only when its local
// table runs dry. Kill it any time: it checkpoints its local INTERVALS,
// SOLUTION and root binding to disk and resumes on restart — the root
// sees only a lease blip. SIGINT or SIGTERM stops it cleanly: a last
// upstream Pulse (a fold to the root, when one is due), a final
// checkpoint, exit 0.
//
// Unlike the root farmer and the workers, a sub-farmer needs NO problem
// configuration: it is pure interval algebra. Work units are intervals at
// every tier, so the mid tier relays and partitions them without ever
// decoding a node — the strongest practical consequence of the paper's
// interval coding.
//
// Usage:
//
//	farmer    -addr :4321 -instance ta056 &
//	subfarmer -root roothost:4321 -addr :4322 &
//	worker    -addr subhost:4322 -instance ta056 &   # fleet of this subtree
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/daemon"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("subfarmer: ")
	var (
		rootAddr = flag.String("root", "127.0.0.1:4321", "root farmer address")
		name     = flag.String("name", "", "sub-farmer identity at the root (default host-pid)")
		ckptDir  = flag.String("checkpoint-dir", "subfarmer-checkpoints", "snapshot directory (two files + root binding)")
		ckpt     = daemon.NewPeriod(flag.CommandLine, "checkpoint-period", 1800, "snapshot period in seconds")
		fold     = daemon.NewPeriod(flag.CommandLine, "update-period", 30, "seconds between folds to the root (keep well under the root's lease TTL)")
		leaseTTL = flag.Int("lease-ttl", 300, "seconds of silence before a fleet worker is presumed dead")
		status   = daemon.NewPeriod(flag.CommandLine, "status-period", 10, "seconds between status lines")

		callRetries = flag.Int("call-retries", 2, "in-call retries against the root before surfacing the error")
		up          = daemon.Dial(flag.CommandLine, "root-")
		serve       = daemon.Serve(flag.CommandLine, ":4322", "listen address for this subtree's workers")
	)
	// Upstream hardening (DESIGN.md §10) — deadline and in-call retries on
	// the root leg, identity presented to the root — and the same
	// listener knobs as cmd/farmer on the fleet side, worded for each leg.
	for name, usage := range map[string]string{
		"call-timeout":         "seconds one root call may take before ErrDeadline (0: no deadline)",
		"root-tls-ca":          "CA to verify the root farmer against (enables TLS upstream)",
		"root-tls-cert":        "client certificate PEM for the root (certificate auth mode)",
		"root-tls-key":         "client key PEM for the root",
		"root-tls-server-name": "expected root server name when it differs from -root's host",
		"root-auth-token":      "shared token to present to the root (token auth mode)",
		"read-timeout":         "seconds a fleet connection may stay silent before eviction (0: no deadline)",
		"max-conns":            "max simultaneous fleet connections, evicting the most idle at the cap (0: unlimited)",
		"tls-cert":             "server certificate PEM for the fleet listener (with -tls-key enables TLS)",
		"tls-key":              "server key PEM for the fleet listener",
		"tls-client-ca":        "require fleet client certificates signed by this CA",
		"auth-token":           "shared token fleet workers must present",
	} {
		flag.Lookup(name).Usage = usage
	}
	daemon.Parse(flag.CommandLine, ckpt, fold, status)

	id := transport.WorkerID(daemon.Identity(*name, "sub-"))

	store, err := checkpoint.NewStore(*ckptDir)
	if err != nil {
		log.Fatal(err)
	}

	// The reconnecting client outlives root restarts and partitions: it
	// re-dials with jittered backoff on every transport failure, and the
	// sub-farmer's cadences already treat a failed exchange as "lost,
	// retry later" — so a root outage degrades to a lease blip instead of
	// permanently severing the subtree (a mid tier must never need a
	// human to rejoin).
	upOpts, err := up.Options()
	if err != nil {
		log.Fatal(err)
	}
	upOpts.Policy.Retries = *callRetries
	root := transport.NewRedialWith(*rootAddr, upOpts)
	defer root.Close()

	sub, err := farmer.RestoreSubFarmer(farmer.SubConfig{
		ID:           id,
		UpdatePeriod: fold.Duration(),
		FleetTTL:     time.Duration(*leaseTTL) * time.Second,
		Store:        store,
		InnerOptions: []farmer.Option{
			farmer.WithLeaseTTL(time.Duration(*leaseTTL) * time.Second),
		},
	}, root)
	if err != nil {
		log.Fatal(err)
	}
	if store.Exists() {
		card, size := sub.Inner().Size()
		upID, bound := sub.Bound()
		log.Printf("resumed from checkpoint: %d intervals, %s numbers left, bound=%v(root id %d)", card, size, bound, upID)
	}

	srv, err := serve.Listen(sub, interval.Interval{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("serving subtree %q on %s, root %s", id, srv.Addr(), *rootAddr)

	// The stop path's last Pulse folds the fleet's progress to the root
	// when a fold is due, before the final checkpoint.
	done, err := daemon.Run(context.Background(), daemon.Loop{
		Checkpoint:      sub.Checkpoint,
		CheckpointEvery: ckpt.Duration(),
		Tick:            sub.Pulse,
		TickEvery:       fold.Duration(),
		StatusEvery:     status.Duration(),
		Status: func() bool {
			card, size := sub.Inner().Size()
			c := sub.Counters()
			log.Printf("intervals=%d remaining=%s refills=%d folds=%d lost=%d timeouts=%d",
				card, size, c.Refills, c.UpstreamUpdates, c.UpstreamLost, c.UpstreamTimeouts)
			return sub.Finished()
		},
	})
	if done {
		ic := sub.Inner().Counters()
		log.Printf("resolution complete: subtree explored %d nodes over %d allocations", ic.ExploredNodes, ic.WorkAllocations)
	}
	if err != nil {
		log.Fatal(err)
	}
}
