package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/transport"
)

// The storm script is a byte string of fixed-size records, so "the same
// seed gives the same inputs" is a bytes.Equal away. A record is one kind
// byte and a 32-bit fraction; a cycle is 31 folds and one retire+request,
// the paper's 4,094,176 checkpoint operations against 129,958 allocations.
const (
	scriptFold   = 'F' // advance the beginning by fraction/2^32 of 1/64 of what remains, fold
	scriptRenew  = 'R' // retire the interval (fold [B,B)) and request a fresh one
	scriptRecord = 5
	foldsPerRing = 31 // + the retiring fold and the request: 33 calls a cycle
)

// stormScript generates client c's script for one replay.
func stormScript(seed int64, c, cycles int) []byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	out := make([]byte, 0, cycles*(foldsPerRing+1)*scriptRecord)
	for i := 0; i < cycles; i++ {
		for j := 0; j < foldsPerRing; j++ {
			out = append(out, scriptFold)
			out = binary.BigEndian.AppendUint32(out, rng.Uint32())
		}
		out = append(out, scriptRenew, 0, 0, 0, 0)
	}
	return out
}

// stormPowers are the eight Table-1 speed classes the preloaded holders
// cycle through. The storm's own clients ask with power 1: against ~2800-
// class holders each request carves a ~1/2800 sliver, so the table stays at
// its preloaded size and length scale for the whole run without rebuilds.
var stormPowers = []int64{800, 1300, 1700, 2000, 2200, 2400, 2800, 3200}

// stormClient is one closed-loop connection: it sends its next call only
// when the previous one has answered.
type stormClient struct {
	coord transport.Coordinator
	id    transport.WorkerID

	ivID      int64
	a, b      *big.Int // what this client still holds of its interval
	tmp, frac *big.Int // scratch

	calls           int64
	foldNS, renewNS []int64 // client-observed latencies since resetSamples
	malformed       int
	firstMalformed  string
}

// note records a reply that breaks the protocol's shape.
func (c *stormClient) note(format string, args ...any) {
	c.malformed++
	if c.firstMalformed == "" {
		c.firstMalformed = fmt.Sprintf(format, args...)
	}
}

// acquire requests a fresh interval with power 1.
func (c *stormClient) acquire() error {
	t0 := time.Now()
	rep, err := c.coord.RequestWork(transport.WorkRequest{Worker: c.id, Power: 1})
	c.renewNS = append(c.renewNS, int64(time.Since(t0)))
	c.calls++
	if err != nil {
		return fmt.Errorf("%s: request: %w", c.id, err)
	}
	if rep.Status != transport.WorkAssigned || rep.Interval.IsEmpty() {
		c.note("%s: request answered %v with %v", c.id, rep.Status, rep.Interval)
		return nil
	}
	c.ivID = rep.IntervalID
	c.a, c.b = rep.Interval.A(), rep.Interval.B()
	return nil
}

// fold re-registers [a,b) and checks the reply is well-formed: known, and
// what remains lies inside what was sent.
func (c *stormClient) fold(retire bool) error {
	sent := interval.New(c.a, c.b)
	t0 := time.Now()
	rep, err := c.coord.UpdateInterval(transport.UpdateRequest{
		Worker: c.id, IntervalID: c.ivID, Remaining: sent, Power: 1, ExploredDelta: 512,
	})
	d := int64(time.Since(t0))
	c.calls++
	if err != nil {
		return fmt.Errorf("%s: fold: %w", c.id, err)
	}
	if !retire {
		c.foldNS = append(c.foldNS, d)
	}
	switch {
	case !rep.Known || rep.Finished:
		c.note("%s: fold of %v answered known=%v finished=%v", c.id, sent, rep.Known, rep.Finished)
	case !sent.ContainsInterval(rep.Interval):
		c.note("%s: fold of %v answered %v, not inside it", c.id, sent, rep.Interval)
	case retire != rep.Interval.IsEmpty():
		c.note("%s: fold of %v (retire=%v) answered %v", c.id, sent, retire, rep.Interval)
	default:
		c.a, c.b = rep.Interval.A(), rep.Interval.B()
	}
	return nil
}

// replay runs the script once.
func (c *stormClient) replay(script []byte) error {
	for ; len(script) >= scriptRecord; script = script[scriptRecord:] {
		switch script[0] {
		case scriptFold:
			// a += (b-a) * fraction / 2^38: at most 1/64 of what is left.
			c.tmp.Sub(c.b, c.a)
			c.tmp.Mul(c.tmp, c.frac.SetUint64(uint64(binary.BigEndian.Uint32(script[1:]))))
			c.tmp.Rsh(c.tmp, 38)
			c.a.Add(c.a, c.tmp)
			if err := c.fold(false); err != nil {
				return err
			}
		case scriptRenew:
			c.a.Set(c.b)
			if err := c.fold(true); err != nil {
				return err
			}
			if err := c.acquire(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stormRig is a farmer preloaded to the paper's fleet size, served over
// TCP, with both clients connected and holding their first interval.
type stormRig struct {
	f       *farmer.Farmer
	root    interval.Interval
	clients []*stormClient
	dir     string // checkpoint directory, "" without a store
	tr      *tracer
	teardown
}

var stormDirs struct {
	sync.Mutex
	n int
}

// newStormRig builds the rig; with ckpt a real-directory checkpoint.Store
// is attached under e.outDir, and with viaProxy the connections run through
// a counting proxy, which is returned.
func newStormRig(e *env, ckpt bool, tr *tracer, viaProxy bool) (*stormRig, *countingProxy, error) {
	r := &stormRig{tr: tr}
	r.root = stormRoot()
	var opts []farmer.Option
	if ckpt {
		stormDirs.Lock()
		stormDirs.n++
		r.dir = filepath.Join(e.outDir, fmt.Sprintf("ckpt-%d-%d", os.Getpid(), stormDirs.n))
		stormDirs.Unlock()
		r.add(func() { os.RemoveAll(r.dir) })
		var fsys checkpoint.FS = checkpoint.OSFS()
		if tr != nil {
			fsys = tracedFS{inner: fsys, tr: tr}
		}
		store, err := checkpoint.NewStoreFS(fsys, r.dir)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		opts = append(opts, farmer.WithCheckpointStore(store))
	}
	var err error
	if r.f, err = preloaded(e.sc.stormIntervals, opts...); err != nil {
		r.close()
		return nil, nil, err
	}
	coords, proxy, err := connect(r.f, r.root, true, viaProxy, tr, &r.teardown)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	for w, coord := range coords {
		sc := &stormClient{coord: coord, id: transport.WorkerID(workerID(w)), tmp: new(big.Int), frac: new(big.Int)}
		if err := sc.acquire(); err != nil {
			r.close()
			return nil, nil, err
		}
		r.clients = append(r.clients, sc)
	}
	return r, proxy, nil
}

// replayAll is one unit: every client replays its script once, side by side.
func (r *stormRig) replayAll(scripts [][]byte) (unit, error) {
	return timed(func() (float64, error) {
		var before int64
		for _, c := range r.clients {
			before += c.calls
		}
		errs := make([]error, len(r.clients))
		var wg sync.WaitGroup
		for i, c := range r.clients {
			wg.Add(1)
			go func(i int, c *stormClient) {
				defer wg.Done()
				errs[i] = c.replay(scripts[i])
			}(i, c)
		}
		wg.Wait()
		var after int64
		for _, c := range r.clients {
			after += c.calls
		}
		return float64(after - before), errors.Join(errs...)
	})
}

// resetSamples drops the latencies gathered so far (the warm-up's).
func (r *stormRig) resetSamples() {
	for _, c := range r.clients {
		c.foldNS, c.renewNS = c.foldNS[:0], c.renewNS[:0]
	}
}

// snapshotter fires Farmer.Checkpoint() on a cadence beside the traffic.
type snapshotter struct {
	stop chan struct{}
	done chan struct{}
	ms   []float64
	err  error
}

func startSnapshotter(r *stormRig, every time.Duration) *snapshotter {
	s := &snapshotter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			d, err := r.snapshot()
			if err != nil {
				s.err = err
				return
			}
			s.ms = append(s.ms, d.Seconds()*1e3)
		}
	}()
	return s
}

// halt stops the cadence and waits for an in-flight snapshot to land.
func (s *snapshotter) halt() error {
	close(s.stop)
	<-s.done
	return s.err
}

// snapshot takes one timed checkpoint (and its span when tracing).
func (r *stormRig) snapshot() (time.Duration, error) {
	var err error
	t0 := time.Now()
	r.tr.during(spanSave, "ckpt", func() { err = r.f.Checkpoint() })
	return time.Since(t0), err
}

// verifyRestore snapshots the quiesced farmer, restores it from the
// directory a few times and demands the same INTERVALS back.
func (r *stormRig) verifyRestore(e *env) ([]float64, error) {
	if _, err := r.snapshot(); err != nil {
		return nil, err
	}
	want := r.f.IntervalsSnapshot()
	var ms []float64
	for i := 0; i < e.sc.restores; i++ {
		store, err := checkpoint.NewStore(r.dir)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		g, err := farmer.Restore(r.root, store, farmer.WithLeaseTTL(time.Hour))
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return nil, err
		}
		got := g.IntervalsSnapshot()
		same := len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j].ID == want[j].ID && got[j].Interval.Equal(want[j].Interval)
		}
		e.rep.check(same, "restore %d: %d intervals back, %d saved, or contents differ", i, len(got), len(want))
	}
	return ms, nil
}

// collect folds the clients' tallies into the report: one attempted outcome
// per call, one failed per ill-formed reply.
func (r *stormRig) collect(e *env) (foldUS, renewUS []float64) {
	for _, c := range r.clients {
		e.rep.attempted += int(c.calls)
		if c.malformed > 0 {
			e.rep.failed += c.malformed - 1
			e.rep.fail("%d ill-formed replies, first: %s", c.malformed, c.firstMalformed)
		}
		for _, ns := range c.foldNS {
			foldUS = append(foldUS, float64(ns)/1e3)
		}
		for _, ns := range c.renewNS {
			renewUS = append(renewUS, float64(ns)/1e3)
		}
	}
	return foldUS, renewUS
}

func runStorm(ckpt bool) func(e *env) error {
	return func(e *env) error {
		name := "farmer-storm"
		if ckpt {
			name = "checkpoint-storm"
		}
		scripts := make([][]byte, loadWorkers)
		for c := range scripts {
			scripts[c] = stormScript(e.seed, c, e.sc.stormCycles)
		}
		build := func(tr *tracer, viaProxy bool) (*stormRig, *countingProxy, error) {
			return newStormRig(e, ckpt, tr, viaProxy)
		}
		if err := e.rehearse(func() (func(), error) {
			rig, _, err := build(nil, false)
			if err != nil {
				return nil, err
			}
			return rig.close, nil
		}); err != nil {
			return err
		}

		// section runs the storm for the window on a fresh rig: a warm-up
		// replay, then measured replays with the snapshot cadence beside
		// them, then (checkpoint-storm) the restore check.
		type section struct {
			units          []unit
			busyPct        float64
			foldUS, reqUS  []float64
			snapMS, restMS []float64
		}
		run := func(tr *tracer, window time.Duration, maxUnits int) (section, error) {
			var s section
			rig, _, err := build(tr, false)
			if err != nil {
				return s, err
			}
			defer rig.close()
			// replays is the traffic: it returns with the snapshot cadence,
			// if any, already halted.
			replays := func() (err error) {
				if ckpt {
					snaps := startSnapshotter(rig, e.sc.snapshotEvery)
					defer func() {
						if herr := snaps.halt(); err == nil {
							err = herr
						}
						s.snapMS = snaps.ms
					}()
				}
				if _, err := rig.replayAll(scripts); err != nil { // warm-up
					return err
				}
				rig.resetSamples()
				busy0, t0 := rig.f.BusyNanos(), time.Now()
				s.units, err = repeatFor(window, maxUnits, func(int) (unit, error) { return rig.replayAll(scripts) })
				s.busyPct = 100 * float64(rig.f.BusyNanos()-busy0) / float64(time.Since(t0))
				return err
			}
			if err := replays(); err != nil {
				return s, err
			}
			s.foldUS, s.reqUS = rig.collect(e)
			if ckpt {
				s.restMS, err = rig.verifyRestore(e)
			}
			return s, err
		}

		if !e.trace {
			s, err := run(nil, e.window(), 0)
			e.setEndToEnd(s.units)
			return err
		}

		ref, err := run(nil, e.window()*2/5, 0)
		if err != nil {
			return err
		}
		e.rep.set("farmer_busy_pct", ref.busyPct)
		e.rep.set("fold_p50_us", quantile(ref.foldUS, 0.50))
		e.rep.set("fold_p99_us", quantile(ref.foldUS, 0.99))
		e.rep.set("fold_samples", float64(len(ref.foldUS)))
		e.rep.set("request_p50_us", quantile(ref.reqUS, 0.50))
		e.rep.set("request_samples", float64(len(ref.reqUS)))
		if ckpt {
			e.rep.set("snapshot_p50_ms", median(ref.snapMS))
			e.rep.set("snapshot_samples", float64(len(ref.snapMS)))
			e.rep.set("restore_ms", median(ref.restMS))
		}

		// Two replays are enough spans; a whole window of them would be
		// hundreds of megabytes of trace.
		tr := newTracer()
		traced, err := run(tr, e.window()/5, 2)
		if err != nil {
			return err
		}
		tr.layerMetrics(e.rep)
		e.rep.set("trace_overhead_pct", 100*(median(walls(traced.units))/median(walls(ref.units))-1))

		// Wire probe: one replay through the counting proxy.
		rig, proxy, err := build(nil, true)
		if err != nil {
			return err
		}
		before := proxy.Total()
		probe, err := rig.replayAll(scripts)
		e.rep.set("wire_bytes_per_op", float64(proxy.Total()-before)/probe.ops)
		rig.collect(e)
		rig.close()
		if err != nil {
			return err
		}

		runProbes(e)
		return tr.write(e.outDir, name, e.seed)
	}
}
