// Command jobd runs the multi-tenant job service: one shared grid of
// pull-model workers (cmd/worker for single-job fleets, or multi-job
// sessions) serving many concurrent B&B resolutions through a keyed job
// table with fair-share scheduling (internal/jobs).
//
// Workers connect over the same TCP protocol cmd/farmer speaks — jobd is
// a drop-in coordinator. Operators drive the service over a small HTTP
// JSON API:
//
//	POST   /jobs        {"id":"ta21x5","spec":{"domain":"flowshop","jobs":21,"machines":5,"seed":3}}
//	GET    /jobs        → every job's live progress
//	GET    /jobs/{id}   → one job's progress (frontier %, incumbent, fleet power)
//	DELETE /jobs/{id}   → cancel (checkpoint stays; resubmit resumes)
//
// Every job checkpoints under its own namespace of -store, and its spec
// is persisted next to the checkpoint, so a restarted jobd resubmits and
// resumes every unfinished job on its own. SIGINT or SIGTERM stops it
// after a final checkpoint of every job, so a restart loses nothing.
//
// Usage:
//
//	jobd -addr :4321 -http :8080 -store jobd-store &
//	worker -addr host:4321 &   # as many as you like, anywhere
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/daemon"
	"repro/internal/interval"
	"repro/internal/jobs"
)

// specFile is the per-namespace sidecar making a job's checkpoint
// self-describing: the two §4.1 files say where the resolution is, the
// spec says which tree it is of.
const specFile = "spec.json"

func saveSpec(storeDir, id string, spec jobs.Spec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(storeDir, id, specFile), data, 0o644)
}

// resumeAll resubmits every namespace directory that has a spec sidecar —
// the sidecar, not the checkpoint, is the source of truth for "this job
// existed". A namespace without snapshot files (submitted but never
// checkpointed) restarts from scratch; one whose snapshot is corrupt
// beyond fallback ends Quarantined in the table, queryable over the API
// with its load error, while every other job resumes normally.
func resumeAll(tb *jobs.Table, storeDir string) {
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		log.Printf("resume scan: %v", err)
		return
	}
	for _, e := range entries {
		id := e.Name()
		if !e.IsDir() || !checkpoint.ValidNamespace(id) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(storeDir, id, specFile))
		if err != nil {
			if !os.IsNotExist(err) {
				log.Printf("resume %s: spec sidecar unreadable: %v", id, err)
			}
			continue
		}
		var spec jobs.Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			log.Printf("resume %s: bad spec sidecar: %v", id, err)
			continue
		}
		if err := tb.Submit(id, spec); err != nil {
			if errors.Is(err, checkpoint.ErrCorrupt) {
				log.Printf("resume %s: checkpoint corrupt, job quarantined: %v", id, err)
			} else {
				log.Printf("resume %s: %v", id, err)
			}
			continue
		}
		log.Printf("resumed job %s (%s)", id, spec.Domain)
	}
}

// api is the HTTP control surface over the table.
type api struct {
	tb       *jobs.Table
	storeDir string
	token    string
}

// auth wraps h with the bearer-token check.
func (a *api) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if a.token != "" && r.Header.Get("Authorization") != "Bearer "+a.token {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (a *api) submit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID   string    `json:"id"`
		Spec jobs.Spec `json:"spec"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := a.tb.Submit(req.ID, req.Spec); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if a.storeDir != "" {
		if err := saveSpec(a.storeDir, req.ID, req.Spec); err != nil {
			log.Printf("job %s: persist spec: %v", req.ID, err)
		}
	}
	p, err := a.tb.Progress(req.ID)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, p)
}

func (a *api) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.tb.List())
}

func (a *api) get(w http.ResponseWriter, r *http.Request) {
	p, err := a.tb.Progress(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (a *api) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.tb.Cancel(id); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	p, err := a.tb.Progress(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (a *api) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", a.auth(a.submit))
	mux.HandleFunc("GET /jobs", a.auth(a.list))
	mux.HandleFunc("GET /jobs/{id}", a.auth(a.get))
	mux.HandleFunc("DELETE /jobs/{id}", a.auth(a.cancel))
	return mux
}

// The HTTP API's connection discipline, the same as the worker port's
// (DESIGN.md §10): a peer gets as long to finish its request headers as a
// worker gets to authenticate, a request or a response may not dribble
// forever, and an idle keep-alive connection is eventually reclaimed. On
// the stop path a request in flight gets httpShutdownTimeout to finish.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = 30 * time.Second
	httpWriteTimeout      = 30 * time.Second
	httpIdleTimeout       = 120 * time.Second
	httpShutdownTimeout   = 5 * time.Second
)

// server builds the HTTP API server for addr.
func (a *api) server(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           a.handler(),
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("jobd: ")
	var (
		serve    = daemon.Serve(flag.CommandLine, ":4321", "worker RPC listen address")
		httpAddr = flag.String("http", ":8080", "HTTP API listen address (empty: disabled)")
		storeDir = flag.String("store", "jobd-store", "checkpoint store directory (one namespace per job)")
		ckpt     = daemon.NewPeriod(flag.CommandLine, "checkpoint-period", 1800, "snapshot period in seconds (paper: 30 minutes)")
		leaseTTL = flag.Int("lease-ttl", 300, "seconds of silence before a worker is presumed dead")
		status   = daemon.NewPeriod(flag.CommandLine, "status-period", 10, "seconds between status lines")

		maxActive  = flag.Int("max-active", 8, "concurrently running jobs")
		maxQueued  = flag.Int("max-queued", 64, "admission queue length")
		maxPerUser = flag.Int("max-per-user", 0, "live jobs per owner (0: unlimited)")
		httpToken  = flag.String("http-token", "", "bearer token the HTTP API requires (empty: open)")
	)
	daemon.Parse(flag.CommandLine, ckpt, status)

	store, err := checkpoint.NewStore(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	tb := jobs.NewTable(jobs.Config{
		MaxActive:  *maxActive,
		MaxQueued:  *maxQueued,
		MaxPerUser: *maxPerUser,
		Store:      store,
		LeaseTTL:   time.Duration(*leaseTTL) * time.Second,
		KeepAlive:  true, // a service waits for the next submission
	})
	resumeAll(tb, *storeDir)

	// No wire reference: job roots differ, so intervals ride absolute —
	// correct for every job, just without delta compression.
	srv, err := serve.Listen(tb, interval.Interval{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("serving workers on %s", srv.Addr())

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("HTTP API on %s", ln.Addr())
		hs := (&api{tb: tb, storeDir: *storeDir, token: *httpToken}).server(*httpAddr)
		go hs.Serve(ln) // returns once the deferred Shutdown below runs
		defer func() {
			// Refuse new connections, but let a submit or cancel in
			// flight finish and answer.
			ctx, cancel := context.WithTimeout(context.Background(), httpShutdownTimeout)
			defer cancel()
			if err := hs.Shutdown(ctx); err != nil {
				log.Printf("HTTP API shutdown: %v", err)
			}
		}()
	}

	if _, err := daemon.Run(context.Background(), daemon.Loop{
		Checkpoint:      tb.Checkpoint,
		CheckpointEvery: ckpt.Duration(),
		StatusEvery:     status.Duration(),
		Status: func() bool {
			for _, p := range tb.List() {
				if p.State == "running" {
					log.Printf("job %-20s %6.2f%% explored, %d intervals, fleet %d, best %s",
						p.ID, p.FrontierPct, p.Intervals, p.FleetPower, daemon.Cost(p.BestCost))
				}
			}
			return false // a service runs until it is stopped
		},
	}); err != nil {
		log.Fatal(err)
	}
}
