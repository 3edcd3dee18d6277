package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/jobs"
	"repro/internal/transport"
	"repro/internal/worker"
)

func newTestTable(t *testing.T, dir string, maxActive int) *jobs.Table {
	t.Helper()
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return jobs.NewTable(jobs.Config{Store: store, MaxActive: maxActive, KeepAlive: true})
}

func decodeProgress(t *testing.T, rec *httptest.ResponseRecorder) jobs.Progress {
	t.Helper()
	var p jobs.Progress
	if err := json.NewDecoder(rec.Body).Decode(&p); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return p
}

// TestResumeSpecWithoutCheckpoint: a namespace holding only the spec
// sidecar — the job was submitted but jobd died before its first snapshot
// — resumes as a fresh running job instead of silently vanishing.
func TestResumeSpecWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "young"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := saveSpec(dir, "young", jobs.Spec{Domain: "knapsack", N: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	tb := newTestTable(t, dir, 8)
	resumeAll(tb, dir)
	p, err := tb.Progress("young")
	if err != nil {
		t.Fatalf("spec-only job not resumed: %v", err)
	}
	if p.State != "running" {
		t.Fatalf("spec-only job is %s, want running", p.State)
	}
	if c := tb.Counters(); c.Resumed != 0 {
		t.Fatalf("Resumed = %d, want 0 (no checkpoint existed)", c.Resumed)
	}
}

// TestResumeQuarantinesCorruptJob: a corrupt checkpoint quarantines its
// own job and only its own job, and the HTTP API reports the state and
// the load error.
func TestResumeQuarantinesCorruptJob(t *testing.T) {
	dir := t.TempDir()
	// A healthy job: real checkpoint written through the real store.
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := store.Namespace("healthy")
	if err != nil {
		t.Fatal(err)
	}
	seed := jobs.NewTable(jobs.Config{Store: store})
	if err := seed.Submit("healthy", jobs.Spec{Domain: "knapsack", N: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !healthy.Exists() {
		t.Fatal("healthy namespace has no checkpoint")
	}
	if err := saveSpec(dir, "healthy", jobs.Spec{Domain: "knapsack", N: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// A rotten job: both snapshot files present but garbage, no previous
	// generation to fall back to.
	if err := os.MkdirAll(filepath.Join(dir, "rotten"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"intervals.ckpt", "solution.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, "rotten", f), []byte("garbage\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := saveSpec(dir, "rotten", jobs.Spec{Domain: "knapsack", N: 12, Seed: 2}); err != nil {
		t.Fatal(err)
	}

	tb := newTestTable(t, dir, 8)
	resumeAll(tb, dir)
	a := &api{tb: tb, storeDir: dir}
	rec := httptest.NewRecorder()
	a.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/rotten", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/rotten: %d %s", rec.Code, rec.Body)
	}
	p := decodeProgress(t, rec)
	if p.State != "quarantined" {
		t.Fatalf("rotten job state %q, want quarantined", p.State)
	}
	if !strings.Contains(p.Error, "corrupt") {
		t.Fatalf("rotten job error %q does not name the corruption", p.Error)
	}
	rec = httptest.NewRecorder()
	a.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/healthy", nil))
	if p := decodeProgress(t, rec); p.State != "running" {
		t.Fatalf("healthy job state %q, want running", p.State)
	}
	if c := tb.Counters(); c.QuarantinedJobs != 1 || c.Resumed != 1 {
		t.Fatalf("counters %+v, want 1 quarantined / 1 resumed", c)
	}
}

// TestDeleteQueuedJob: DELETE of a job still waiting for a running slot
// cancels it cleanly through the API.
func TestDeleteQueuedJob(t *testing.T) {
	dir := t.TempDir()
	tb := newTestTable(t, dir, 1)
	a := &api{tb: tb, storeDir: dir}
	h := a.handler()
	for _, id := range []string{"first", "second"} {
		body := strings.NewReader(`{"id":"` + id + `","spec":{"domain":"knapsack","n":12,"seed":3}}`)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", body))
		if rec.Code != http.StatusCreated {
			t.Fatalf("POST %s: %d %s", id, rec.Code, rec.Body)
		}
	}
	if p, _ := tb.Progress("second"); p.State != "queued" {
		t.Fatalf("second job is %s, want queued (MaxActive=1)", p.State)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/second", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE queued job: %d %s", rec.Code, rec.Body)
	}
	if p := decodeProgress(t, rec); p.State != "cancelled" {
		t.Fatalf("deleted queued job is %s, want cancelled", p.State)
	}
	// The running job is untouched, and deleting it also works.
	if p, _ := tb.Progress("first"); p.State != "running" {
		t.Fatalf("first job is %s, want running", p.State)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/second", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("double delete: %d, want conflict", rec.Code)
	}
}

// TestHTTPTokenGuardsEveryRoute: with -http-token set, every route answers
// 401 without the bearer token, and serves with it.
func TestHTTPTokenGuardsEveryRoute(t *testing.T) {
	a := &api{tb: newTestTable(t, t.TempDir(), 8), token: "s3cret"}
	h := a.handler()
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/jobs", `{"id":"k","spec":{"domain":"knapsack","n":12,"seed":1}}`},
		{"GET", "/jobs", ""},
		{"GET", "/jobs/k", ""},
		{"DELETE", "/jobs/k", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s %s without token: %d, want 401", c.method, c.path, rec.Code)
		}
		rec = httptest.NewRecorder()
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		req.Header.Set("Authorization", "Bearer s3cret")
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusUnauthorized || rec.Code >= 300 {
			t.Errorf("%s %s with token: %d %s", c.method, c.path, rec.Code, rec.Body)
		}
	}
}

// TestHTTPServerDropsStalledHeaders: the API server carries the worker
// port's connection discipline. A client that opens a connection and never
// finishes its request headers is dropped once the header timeout passes,
// while a well-behaved GET /jobs on the same server keeps answering.
func TestHTTPServerDropsStalledHeaders(t *testing.T) {
	a := &api{tb: newTestTable(t, t.TempDir(), 8)}
	srv := a.server("127.0.0.1:0")
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != 30*time.Second ||
		srv.WriteTimeout != 30*time.Second || srv.IdleTimeout != 120*time.Second {
		t.Errorf("timeouts header=%v read=%v write=%v idle=%v, want 10s/30s/30s/120s",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	// The same server on a test's clock: every bound scaled down 50x.
	const bound = 200 * time.Millisecond
	srv.ReadHeaderTimeout = bound
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	opened := time.Now()
	if _, err := stalled.Write([]byte("GET /jobs HTTP/1.1\r\nHost: jobd\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs beside a stalled client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs beside a stalled client: status %d", resp.StatusCode)
	}

	// The server must hang up on its own; the read deadline only keeps a
	// regression from wedging the test.
	stalled.SetReadDeadline(time.Now().Add(20 * bound))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled client still connected %v after opening (header bound %v): %v", time.Since(opened), bound, err)
	}
}

// syncBuffer collects a subprocess's output while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// buildJobd builds the jobd binary into dir.
func buildJobd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "jobd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build jobd: %v\n%s", err, out)
	}
	return bin
}

// startJobd starts the jobd binary and returns it with its worker address.
func startJobd(t *testing.T, bin string, args ...string) (cmd *exec.Cmd, out *syncBuffer, workers string) {
	t.Helper()
	out = &syncBuffer{}
	cmd = exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) // a no-op once it has exited
	re := regexp.MustCompile(`(?s)serving workers on (\S+).*HTTP API on`)
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return cmd, out, m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobd never bound; output:\n%s", out.String())
		}
	}
}

func frontierPct(t *testing.T, api, id string) float64 {
	t.Helper()
	resp, err := http.Get(api + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p jobs.Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p.FrontierPct
}

// cancelOnFold cancels its worker's context once a fold is acknowledged.
type cancelOnFold struct {
	transport.Coordinator
	cancel context.CancelFunc
}

func (c cancelOnFold) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	reply, err := c.Coordinator.UpdateInterval(req)
	if err == nil {
		c.cancel()
	}
	return reply, err
}

// TestSIGTERMCheckpointsJobs: the jobd binary, its periodic snapshot an
// hour away, is stopped by SIGTERM after a worker folded part of a job. It
// must exit 0 after a final checkpoint, so after a restart the job reports
// at least the frontier it had reached before the signal.
func TestSIGTERMCheckpointsJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	dir := t.TempDir()
	bin := buildJobd(t, dir)
	// The HTTP API keeps its port across the restart.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := ln.Addr().String()
	ln.Close()
	api := "http://" + httpAddr
	args := []string{
		"-addr", "127.0.0.1:0", "-http", httpAddr, "-store", filepath.Join(dir, "store"),
		"-checkpoint-period", "3600", "-status-period", "1",
	}
	first, out, workers := startJobd(t, bin, args...)
	spec := jobs.Spec{Domain: "flowshop", Jobs: 11, Machines: 6, Seed: 3}
	body, _ := json.Marshal(map[string]any{"id": "j1", "spec": spec})
	resp, err := http.Post(api+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs: %s", resp.Status)
	}

	// One worker folds once and leaves: the job is part-explored whatever
	// the machine's speed.
	factory, err := spec.Factory()
	if err != nil {
		t.Fatal(err)
	}
	client, err := transport.DialWith(workers, transport.DialOptions{Policy: transport.Policy{Timeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := worker.Run(ctx, worker.Config{ID: "fold-once", Power: 1, UpdatePeriodNodes: 200, StepSize: 100},
		cancelOnFold{client, cancel}, factory())
	if err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	if res.Updates == 0 {
		t.Fatalf("worker left without folding: %+v", res)
	}
	before := frontierPct(t, api, "j1")
	if before <= 0 || before >= 100 {
		t.Fatalf("frontier %.2f%% after one fold, want part-explored", before)
	}

	if err := first.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err != nil {
		t.Fatalf("jobd did not exit cleanly on SIGTERM: %v\n%s", err, out.String())
	}
	startJobd(t, bin, args...)
	if after := frontierPct(t, api, "j1"); after < before {
		t.Fatalf("restarted job reports frontier %.2f%%, %.2f%% before SIGTERM", after, before)
	}
}

// TestSIGTERMAnswersInFlightRequest: a submit whose body is still arriving
// when jobd receives SIGTERM is answered, not cut. The HTTP API stops
// taking connections on the stop path, and the request then completes.
func TestSIGTERMAnswersInFlightRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	dir := t.TempDir()
	cmd, out, _ := startJobd(t, buildJobd(t, dir),
		"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-store", filepath.Join(dir, "store"),
		"-checkpoint-period", "3600", "-status-period", "3600")
	httpAddr := regexp.MustCompile(`HTTP API on (\S+)`).FindStringSubmatch(out.String())[1]

	body, _ := json.Marshal(map[string]any{"id": "late", "spec": jobs.Spec{Domain: "flowshop", Jobs: 8, Machines: 4, Seed: 1}})
	conn, err := net.Dial("tcp", httpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /jobs HTTP/1.1\r\nHost: jobd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := conn.Write(append([]byte(head), body[:len(body)/2]...)); err != nil {
		t.Fatal(err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Once the API refuses connections the stop path has reached it.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		c, err := net.Dial("tcp", httpAddr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatalf("HTTP API still accepting 15s after SIGTERM:\n%s", out.String())
		}
	}
	if _, err := conn.Write(body[len(body)/2:]); err != nil {
		t.Fatalf("in-flight request cut on SIGTERM: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request cut on SIGTERM: %v\n%s", err, out.String())
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("in-flight POST /jobs answered %s", resp.Status)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("jobd did not exit cleanly on SIGTERM: %v\n%s", err, out.String())
	}
}
