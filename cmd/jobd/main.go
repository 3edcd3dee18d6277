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
// resumes every unfinished job on its own.
//
// Usage:
//
//	jobd -addr :4321 -http :8080 -store jobd-store &
//	worker -addr host:4321 &   # as many as you like, anywhere
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/jobs"
	"repro/internal/transport"
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

func (a *api) auth(w http.ResponseWriter, r *http.Request) bool {
	if a.token == "" || r.Header.Get("Authorization") == "Bearer "+a.token {
		return true
	}
	http.Error(w, "unauthorized", http.StatusUnauthorized)
	return false
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
	if !a.auth(w, r) {
		return
	}
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
	if !a.auth(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, a.tb.List())
}

func (a *api) get(w http.ResponseWriter, r *http.Request) {
	if !a.auth(w, r) {
		return
	}
	p, err := a.tb.Progress(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (a *api) cancel(w http.ResponseWriter, r *http.Request) {
	if !a.auth(w, r) {
		return
	}
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
	mux.HandleFunc("POST /jobs", a.submit)
	mux.HandleFunc("GET /jobs", a.list)
	mux.HandleFunc("GET /jobs/{id}", a.get)
	mux.HandleFunc("DELETE /jobs/{id}", a.cancel)
	return mux
}

// The HTTP API's connection discipline, the same as the worker port's
// (DESIGN.md §10): a peer gets as long to finish its request headers as a
// worker gets to authenticate, a request or a response may not dribble
// forever, and an idle keep-alive connection is eventually reclaimed.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = 30 * time.Second
	httpWriteTimeout      = 30 * time.Second
	httpIdleTimeout       = 120 * time.Second
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
		addr     = flag.String("addr", ":4321", "worker RPC listen address")
		httpAddr = flag.String("http", ":8080", "HTTP API listen address (empty: disabled)")
		storeDir = flag.String("store", "jobd-store", "checkpoint store directory (one namespace per job)")
		ckptSecs = flag.Int("checkpoint-period", 1800, "snapshot period in seconds (paper: 30 minutes)")
		leaseTTL = flag.Int("lease-ttl", 300, "seconds of silence before a worker is presumed dead")
		statusIv = flag.Int("status-period", 10, "seconds between status lines")

		maxActive  = flag.Int("max-active", 8, "concurrently running jobs")
		maxQueued  = flag.Int("max-queued", 64, "admission queue length")
		maxPerUser = flag.Int("max-per-user", 0, "live jobs per owner (0: unlimited)")

		// Hostile-WAN hardening (DESIGN.md §10), as in cmd/farmer.
		readTimeout = flag.Int("read-timeout", 300, "seconds a connection may stay silent before eviction (0: no deadline)")
		maxConns    = flag.Int("max-conns", 0, "max simultaneous connections, evicting the most idle at the cap (0: unlimited)")
		maxMsg      = flag.Int64("max-msg-bytes", transport.DefaultMaxMessageBytes, "per-message byte limit (negative: unlimited)")
		tlsCert     = flag.String("tls-cert", "", "server certificate PEM (with -tls-key enables TLS)")
		tlsKey      = flag.String("tls-key", "", "server key PEM")
		tlsClientCA = flag.String("tls-client-ca", "", "require client certificates signed by this CA (certificate auth mode)")
		authToken   = flag.String("auth-token", "", "shared token workers must present (token auth mode)")
		httpToken   = flag.String("http-token", "", "bearer token the HTTP API requires (empty: open)")
	)
	flag.Parse()

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

	so := transport.ServerOptions{
		ReadTimeout:     time.Duration(*readTimeout) * time.Second,
		MaxConns:        *maxConns,
		MaxMessageBytes: *maxMsg,
		Token:           *authToken,
		// No WireRef: job roots differ, so intervals ride absolute —
		// correct for every job, just without delta compression.
	}
	if *tlsCert != "" || *tlsKey != "" {
		if so.TLS, err = transport.LoadServerTLS(*tlsCert, *tlsKey, *tlsClientCA); err != nil {
			log.Fatal(err)
		}
		log.Printf("TLS enabled (client CA: %v, token: %v)", *tlsClientCA != "", *authToken != "")
	}
	srv, err := transport.ServeWith(tb, *addr, so)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("serving workers on %s", srv.Addr())

	if *httpAddr != "" {
		a := &api{tb: tb, storeDir: *storeDir, token: *httpToken}
		go func() {
			log.Printf("HTTP API on %s", *httpAddr)
			if err := a.server(*httpAddr).ListenAndServe(); err != nil &&
				!errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	ckptTicker := time.NewTicker(time.Duration(*ckptSecs) * time.Second)
	defer ckptTicker.Stop()
	statusTicker := time.NewTicker(time.Duration(*statusIv) * time.Second)
	defer statusTicker.Stop()
	for {
		select {
		case <-ckptTicker.C:
			if err := tb.Checkpoint(); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		case <-statusTicker.C:
			for _, p := range tb.List() {
				if p.State != "running" {
					continue
				}
				best := "∞"
				if p.BestCost != bb.Infinity {
					best = fmt.Sprint(p.BestCost)
				}
				log.Printf("job %-20s %6.2f%% explored, %d intervals, fleet %d, best %s",
					p.ID, p.FrontierPct, p.Intervals, p.FleetPower, best)
			}
		}
	}
}
