package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/transport"
)

// Span names, one per layer boundary the benchmark can see from outside.
const (
	spanEngine = "engine.run"      // one per worker lifetime
	spanClient = "client.call"     // worker side of a protocol call
	spanServer = "server.serve"    // the served Farmer/Table's side of the same call
	spanSave   = "checkpoint.save" // one Farmer.Checkpoint()
	spanFS     = "fs."             // + write, sync, syncdir, rename
)

// Protocol operations, recorded on client.call and server.serve spans.
const (
	opNone = iota
	opRequest
	opUpdate
	opReport
)

// span is one timed interval. Spans of one protocol call share (actor, seq):
// the worker id and that worker's call sequence number, which both ends can
// count independently because a worker's calls are strictly sequential.
type span struct {
	name       string
	actor      string // worker id, or "ckpt" for the snapshot goroutine
	seq        int64
	op         int
	start, end int64 // ns since the tracer started
	parent     int   // index into tracer.spans, -1 for a root; set by link
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	serverSeq map[string]int64 // next call sequence per worker, server side
	// folds records, per served UpdateInterval, which job it was for and
	// how many explored nodes it reported (tenants-batch's share metric).
	folds []foldEvent
}

type foldEvent struct {
	at       int64
	job      string
	explored int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), serverSeq: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// during runs f as one span of actor's. A nil tracer just runs f, so call
// sites need no tracing-on branch.
func (t *tracer) during(name, actor string, f func()) {
	if t == nil {
		f()
		return
	}
	start := t.now()
	f()
	t.add(span{name: name, actor: actor, start: start, end: t.now()})
}

// nextServerSeq numbers a call as it reaches the served coordinator.
func (t *tracer) nextServerSeq(actor string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.serverSeq[actor]
	t.serverSeq[actor] = seq + 1
	return seq
}

// clientCoord is the worker-side decorator. One per worker: its sequence
// counter needs no lock because a worker calls from one goroutine.
type clientCoord struct {
	inner transport.Coordinator
	tr    *tracer
	actor string
	seq   int64
}

func (c *clientCoord) record(op int, start int64) {
	c.tr.add(span{name: spanClient, actor: c.actor, seq: c.seq, op: op, start: start, end: c.tr.now()})
	c.seq++
}

func (c *clientCoord) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	start := c.tr.now()
	rep, err := c.inner.RequestWork(req)
	c.record(opRequest, start)
	return rep, err
}

func (c *clientCoord) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	start := c.tr.now()
	rep, err := c.inner.UpdateInterval(req)
	c.record(opUpdate, start)
	return rep, err
}

func (c *clientCoord) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	start := c.tr.now()
	rep, err := c.inner.ReportSolution(req)
	c.record(opReport, start)
	return rep, err
}

// serverCoord is the same decorator around the served Farmer or Table.
type serverCoord struct {
	inner transport.Coordinator
	tr    *tracer
}

func (s *serverCoord) record(actor transport.WorkerID, op int, start int64) {
	a := string(actor)
	s.tr.add(span{name: spanServer, actor: a, seq: s.tr.nextServerSeq(a), op: op, start: start, end: s.tr.now()})
}

func (s *serverCoord) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	start := s.tr.now()
	rep, err := s.inner.RequestWork(req)
	s.record(req.Worker, opRequest, start)
	return rep, err
}

func (s *serverCoord) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	start := s.tr.now()
	rep, err := s.inner.UpdateInterval(req)
	s.record(req.Worker, opUpdate, start)
	s.tr.mu.Lock()
	s.tr.folds = append(s.tr.folds, foldEvent{at: start, job: req.Job, explored: req.ExploredDelta})
	s.tr.mu.Unlock()
	return rep, err
}

func (s *serverCoord) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	start := s.tr.now()
	rep, err := s.inner.ReportSolution(req)
	s.record(req.Worker, opReport, start)
	return rep, err
}

// tracedFS decorates a checkpoint.FS with one span per durability-critical
// operation. Reads and probes pass through untimed.
type tracedFS struct {
	inner checkpoint.FS
	tr    *tracer
}

func (f tracedFS) timed(op string, call func() error) error {
	var err error
	f.tr.during(spanFS+op, "ckpt", func() { err = call() })
	return err
}

func (f tracedFS) WriteFile(name string, data []byte) error {
	return f.timed("write", func() error { return f.inner.WriteFile(name, data) })
}
func (f tracedFS) Sync(name string) error {
	return f.timed("sync", func() error { return f.inner.Sync(name) })
}
func (f tracedFS) SyncDir(dir string) error {
	return f.timed("syncdir", func() error { return f.inner.SyncDir(dir) })
}
func (f tracedFS) Rename(oldname, newname string) error {
	return f.timed("rename", func() error { return f.inner.Rename(oldname, newname) })
}
func (f tracedFS) MkdirAll(dir string) error                 { return f.inner.MkdirAll(dir) }
func (f tracedFS) Remove(name string) error                  { return f.inner.Remove(name) }
func (f tracedFS) ReadFile(name string) ([]byte, error)      { return f.inner.ReadFile(name) }
func (f tracedFS) ReadDir(dir string) ([]fs.DirEntry, error) { return f.inner.ReadDir(dir) }
func (f tracedFS) Stat(name string) (fs.FileInfo, error)     { return f.inner.Stat(name) }

// link sets every span's parent: a server.serve hangs under the client.call
// with its (actor, seq), a client.call under its worker's engine.run, an fs
// span under the checkpoint.save that encloses it in time.
func (t *tracer) link() {
	type key struct {
		actor string
		seq   int64
	}
	calls := make(map[key]int)
	engines := make(map[string]int)
	var saves []int
	for i, s := range t.spans {
		switch s.name {
		case spanClient:
			calls[key{s.actor, s.seq}] = i
		case spanEngine:
			engines[s.actor] = i
		case spanSave:
			saves = append(saves, i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.parent = -1
		switch {
		case s.name == spanServer:
			if p, ok := calls[key{s.actor, s.seq}]; ok {
				s.parent = p
			}
		case s.name == spanClient:
			if p, ok := engines[s.actor]; ok {
				s.parent = p
			}
		case len(s.name) > len(spanFS) && s.name[:len(spanFS)] == spanFS:
			for _, p := range saves {
				if t.spans[p].start <= s.start && s.end <= t.spans[p].end {
					s.parent = p
					break
				}
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part its children
// cover. Call after link.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// layerMetrics reduces the spans to the per-layer table's span rows.
func (t *tracer) layerMetrics(rep *report) {
	t.link()
	self := t.selfTimes()
	var (
		engineEnd              []int64
		engineSelf, engineDur  float64
		rpcWait                float64
		engines, folds, reqs   int
		transportSelf, serving []float64
		saveDur, fsyncDur      float64
		saves                  int
	)
	for i, s := range t.spans {
		switch s.name {
		case spanEngine:
			engines++
			engineEnd = append(engineEnd, s.end)
			engineSelf += float64(self[i])
			engineDur += float64(s.dur())
		case spanClient:
			rpcWait += float64(s.dur())
			transportSelf = append(transportSelf, float64(self[i])/1e3)
			switch s.op {
			case opUpdate:
				folds++
			case opRequest:
				reqs++
			}
		case spanServer:
			serving = append(serving, float64(s.dur())/1e3)
		case spanSave:
			saves++
			saveDur += float64(s.dur())
		case spanFS + "sync", spanFS + "syncdir":
			fsyncDur += float64(s.dur())
		}
	}
	rep.set("worker.folds", float64(folds))
	rep.set("worker.requests", float64(reqs))
	if engines > 0 {
		// Per-worker means: the workers run side by side, so their sums
		// would double-count wall-clock.
		rep.set("worker.engine_self_s", engineSelf/1e9/float64(engines))
		rep.set("worker.rpc_wait_s", rpcWait/1e9/float64(engines))
		rep.set("worker.rpc_wait_share", rpcWait/engineDur)
		lo, hi := engineEnd[0], engineEnd[0]
		for _, e := range engineEnd {
			lo, hi = min(lo, e), max(hi, e)
		}
		rep.set("worker.idle_tail_s", float64(hi-lo)/1e9)
	}
	rep.set("transport.self_p50_us", quantile(transportSelf, 0.50))
	rep.set("transport.self_p99_us", quantile(transportSelf, 0.99))
	rep.set("farmer.serve_p50_us", quantile(serving, 0.50))
	rep.set("farmer.serve_p99_us", quantile(serving, 0.99))
	if saves > 0 {
		rep.set("checkpoint.fsync_ns", fsyncDur/float64(saves))
		rep.set("checkpoint.fsync_share_pct", 100*fsyncDur/saveDur)
	}
}

// traceFile is the on-disk form: one row per span, columns named once.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Columns  []string `json:"columns"`
	Spans    [][]any  `json:"spans"`
}

var opNames = []string{"", "request", "update", "report"}

// write stores the spans under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	t.link()
	self := t.selfTimes()
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Columns:  []string{"id", "parent", "name", "actor", "seq", "op", "start_ns", "end_ns", "self_ns"},
		Spans:    make([][]any, len(t.spans)),
	}
	for i, s := range t.spans {
		tf.Spans[i] = []any{i, s.parent, s.name, s.actor, s.seq, opNames[s.op], s.start, s.end, self[i]}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
