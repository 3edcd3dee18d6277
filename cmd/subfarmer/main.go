// Command subfarmer runs the mid tier of a hierarchical farmer tree
// (DESIGN.md §9): it connects to a root farmer (cmd/farmer) as one worker,
// serves its own fleet of workers (cmd/worker) over the unchanged
// farmer–worker protocol, aggregates the fleet into one interval fold and
// one power, and asks the root for a fresh sub-range only when its local
// table runs dry. Kill it any time: it checkpoints its local INTERVALS,
// SOLUTION and root binding to disk and resumes on restart — the root
// sees only a lease blip.
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
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/farmer"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("subfarmer: ")
	var (
		rootAddr = flag.String("root", "127.0.0.1:4321", "root farmer address")
		addr     = flag.String("addr", ":4322", "listen address for this subtree's workers")
		name     = flag.String("name", "", "sub-farmer identity at the root (default host-pid)")
		ckptDir  = flag.String("checkpoint-dir", "subfarmer-checkpoints", "snapshot directory (two files + root binding)")
		ckptSecs = flag.Int("checkpoint-period", 1800, "snapshot period in seconds")
		foldSecs = flag.Int("update-period", 30, "seconds between folds to the root (keep well under the root's lease TTL)")
		leaseTTL = flag.Int("lease-ttl", 300, "seconds of silence before a fleet worker is presumed dead")
		statusIv = flag.Int("status-period", 10, "seconds between status lines")

		// Upstream hardening (DESIGN.md §10): deadline + in-call retries on
		// the root leg, identity presented to the root.
		callTimeout = flag.Int("call-timeout", 30, "seconds one root call may take before ErrDeadline (0: no deadline)")
		callRetries = flag.Int("call-retries", 2, "in-call retries against the root before surfacing the error")
		rootCA      = flag.String("root-tls-ca", "", "CA to verify the root farmer against (enables TLS upstream)")
		rootCert    = flag.String("root-tls-cert", "", "client certificate PEM for the root (certificate auth mode)")
		rootKey     = flag.String("root-tls-key", "", "client key PEM for the root")
		rootName    = flag.String("root-tls-server-name", "", "expected root server name when it differs from -root's host")
		rootToken   = flag.String("root-auth-token", "", "shared token to present to the root (token auth mode)")

		// Fleet-side hardening: same listener knobs as cmd/farmer.
		readTimeout = flag.Int("read-timeout", 300, "seconds a fleet connection may stay silent before eviction (0: no deadline)")
		maxConns    = flag.Int("max-conns", 0, "max simultaneous fleet connections, evicting the most idle at the cap (0: unlimited)")
		maxMsg      = flag.Int64("max-msg-bytes", transport.DefaultMaxMessageBytes, "per-message byte limit (negative: unlimited)")
		tlsCert     = flag.String("tls-cert", "", "server certificate PEM for the fleet listener (with -tls-key enables TLS)")
		tlsKey      = flag.String("tls-key", "", "server key PEM for the fleet listener")
		tlsClientCA = flag.String("tls-client-ca", "", "require fleet client certificates signed by this CA")
		authToken   = flag.String("auth-token", "", "shared token fleet workers must present")
	)
	flag.Parse()

	id := transport.WorkerID(*name)
	if id == "" {
		host, _ := os.Hostname()
		id = transport.WorkerID(fmt.Sprintf("sub-%s-%d", host, os.Getpid()))
	}

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
	upOpts := transport.DialOptions{
		Policy: transport.Policy{
			Timeout: time.Duration(*callTimeout) * time.Second,
			Retries: *callRetries,
		},
		Token: *rootToken,
	}
	if *rootCA != "" || *rootCert != "" || *rootKey != "" {
		if upOpts.TLS, err = transport.LoadClientTLS(*rootCA, *rootCert, *rootKey, *rootName); err != nil {
			log.Fatal(err)
		}
	}
	up := transport.NewRedialWith(*rootAddr, upOpts)
	defer up.Close()

	sub, err := farmer.RestoreSubFarmer(farmer.SubConfig{
		ID:           id,
		UpdatePeriod: time.Duration(*foldSecs) * time.Second,
		FleetTTL:     time.Duration(*leaseTTL) * time.Second,
		Store:        store,
		InnerOptions: []farmer.Option{
			farmer.WithLeaseTTL(time.Duration(*leaseTTL) * time.Second),
		},
	}, up)
	if err != nil {
		log.Fatal(err)
	}
	if store.Exists() {
		card, size := sub.Inner().Size()
		upID, bound := sub.Bound()
		log.Printf("resumed from checkpoint: %d intervals, %s numbers left, bound=%v(root id %d)", card, size, bound, upID)
	}

	so := transport.ServerOptions{
		ReadTimeout:     time.Duration(*readTimeout) * time.Second,
		MaxConns:        *maxConns,
		MaxMessageBytes: *maxMsg,
		Token:           *authToken,
	}
	if *tlsCert != "" || *tlsKey != "" {
		if so.TLS, err = transport.LoadServerTLS(*tlsCert, *tlsKey, *tlsClientCA); err != nil {
			log.Fatal(err)
		}
		log.Printf("fleet TLS enabled (client CA: %v, token: %v)", *tlsClientCA != "", *authToken != "")
	}
	srv, err := transport.ServeWith(sub, *addr, so)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("serving subtree %q on %s, root %s", id, srv.Addr(), *rootAddr)

	pulse := time.NewTicker(time.Duration(*foldSecs) * time.Second)
	defer pulse.Stop()
	ckpt := time.NewTicker(time.Duration(*ckptSecs) * time.Second)
	defer ckpt.Stop()
	status := time.NewTicker(time.Duration(*statusIv) * time.Second)
	defer status.Stop()
	for {
		select {
		case <-pulse.C:
			sub.Pulse()
		case <-ckpt.C:
			if err := sub.Checkpoint(); err != nil {
				log.Printf("checkpoint failed: %v", err)
			}
		case <-status.C:
			card, size := sub.Inner().Size()
			c := sub.Counters()
			log.Printf("intervals=%d remaining=%s refills=%d folds=%d lost=%d timeouts=%d",
				card, size, c.Refills, c.UpstreamUpdates, c.UpstreamLost, c.UpstreamTimeouts)
			if sub.Finished() {
				if err := sub.Checkpoint(); err != nil {
					log.Printf("final checkpoint failed: %v", err)
				}
				ic := sub.Inner().Counters()
				log.Printf("resolution complete: subtree explored %d nodes over %d allocations", ic.ExploredNodes, ic.WorkAllocations)
				return
			}
		}
	}
}
