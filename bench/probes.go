package main

import (
	"fmt"
	"io/fs"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/jobs"
	"repro/internal/transport"
	"repro/internal/tree"
)

// Unit probes: a timed loop over one public function at the workload's
// scale, ns and heap allocations per call. They do not depend on the
// workload or the seed and run in every traced pass, so every traced result
// carries the whole layer table.

// runProbes fills the probe rows of the per-layer table. A probe that
// cannot be set up is a failed outcome, not a silent zero.
func runProbes(e *env) {
	n := func(full int) int { return max(full/e.sc.probeScale, 10) }
	for _, p := range []struct {
		layer string
		run   func(e *env, n func(int) int) error
	}{
		{"flowshop+core", probeEngine},
		{"interval", probeInterval},
		{"transport", probeTransport},
		{"farmer+jobs", probeFarmer},
		{"checkpoint", probeCheckpoint},
	} {
		t0 := time.Now()
		if err := p.run(e, n); err != nil {
			e.rep.check(false, "%s probes: %v", p.layer, err)
		}
		fmt.Fprintf(e.log, "%s probes took %.2f s\n", p.layer, time.Since(t0).Seconds())
	}
}

// probeEngine prices the bound, the interval-coded explorer against the
// plain sequential one, and the explorer's fold/restrict surface.
func probeEngine(e *env, n func(int) int) error {
	factory, err := proofFactory(e.sc.proofJobs, e.sc.proofMachines)
	if err != nil {
		return err
	}
	// One node of the proof's tree, four levels down: branch, bound
	// against the proof's incumbent, back up.
	p := factory()
	p.Reset()
	for d := 0; d < 4; d++ {
		p.Descend(0)
	}
	width, r := p.Shape().Branching(4), 0
	ns, _ := probe(n(400_000), func() {
		p.Descend(r)
		p.Bound(e.sc.proofUpper)
		p.Ascend()
		if r++; r == width {
			r = 0
		}
	})
	e.rep.set("flowshop.bound_ns", ns)

	// The same primed tree through bb.Solve and through one Explorer over
	// the whole root. The proof instance itself would take seconds per
	// side, so this uses a smaller cut of ta056.
	small, err := proofFactory(e.sc.stepJobs, e.sc.stepMachines)
	if err != nil {
		return err
	}
	upper := e.sc.stepUpper
	if upper == 0 { // smoke scale: solve on the spot
		opt, _ := bb.Solve(small(), bb.Infinity)
		upper = opt.Cost
	}
	t0 := time.Now()
	_, seq := bb.Solve(small(), upper)
	seqNS := float64(time.Since(t0).Nanoseconds()) / float64(seq.Explored)
	nb := core.NewNumbering(small().Shape())
	ex := core.NewExplorer(small(), nb, nb.RootRange(), upper)
	t0 = time.Now()
	_, st := ex.Run(1 << 14)
	stepNS := float64(time.Since(t0).Nanoseconds()) / float64(st.Explored)
	if st.Explored != seq.Explored {
		return fmt.Errorf("explorer visited %d nodes, bb.Solve %d, on the same primed tree", st.Explored, seq.Explored)
	}
	e.rep.set("core.step_ns_per_node", stepNS)
	e.rep.set("core.step_overhead_pct", 100*(stepNS/seqNS-1))

	// Fold surface of a mid-walk explorer on the proof's tree: what a
	// worker pays per fold besides the round trip.
	pnb := core.NewNumbering(p.Shape())
	mid := core.NewExplorer(factory(), pnb, pnb.RootRange(), e.sc.proofUpper)
	mid.Step(100_000)
	var rem interval.Interval
	ns, _ = probe(n(20_000), func() { rem = mid.Remaining() })
	e.rep.set("core.remaining_ns", ns)
	ns, _ = probe(n(100_000), func() { mid.Restrict(rem) })
	e.rep.set("core.restrict_ns", ns)
	active := core.Unfold(pnb, rem)
	ns, _ = probe(n(5_000), func() { active = core.Unfold(pnb, rem) })
	e.rep.set("core.unfold_ns", ns)
	ns, _ = probe(n(20_000), func() { _, err = core.Fold(pnb, active) })
	e.rep.set("core.fold_ns", ns)
	return err
}

// stormRoot is the ta056 50x20 numbering's root range, numbers around
// 2^214: the scale every coordinator-side probe runs at.
func stormRoot() interval.Interval {
	return core.NewNumbering(tree.Permutation{N: 50}).RootRange()
}

// probeInterval prices the bignum algebra and codec at ta056 scale.
func probeInterval(e *env, n func(int) int) error {
	root := stormRoot()
	// An interior interval, a third of the way in and a ninth long.
	a := new(big.Int).Div(root.Len(), big.NewInt(3))
	iv := interval.New(a, new(big.Int).Add(a, new(big.Int).Div(root.Len(), big.NewInt(9))))
	other := interval.New(new(big.Int).Add(a, big.NewInt(12345)), root.B())
	var buf []byte
	ns, _ := probe(n(200_000), func() { buf = iv.AppendDelta(buf[:0], root) })
	e.rep.set("interval.append_delta_ns", ns)
	var err error
	ns, _ = probe(n(200_000), func() { _, _, err = interval.DecodeDelta(buf, root, 0) })
	e.rep.set("interval.decode_delta_ns", ns)
	ns, allocs := probe(n(200_000), func() { iv.SplitProportional(2800, 1) })
	e.rep.set("interval.split_proportional_ns", ns)
	e.rep.set("interval.allocs_per_split", allocs)
	ns, _ = probe(n(200_000), func() { iv.Intersect(other) })
	e.rep.set("interval.intersect_ns", ns)
	return err
}

// stubCoord answers every call with a canned reply: what is left of a round
// trip when the coordinator costs nothing.
type stubCoord struct{ iv interval.Interval }

func (s stubCoord) RequestWork(transport.WorkRequest) (transport.WorkReply, error) {
	return transport.WorkReply{Status: transport.WorkAssigned, IntervalID: 1, Interval: s.iv}, nil
}
func (s stubCoord) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	return transport.UpdateReply{Known: true, Interval: req.Remaining}, nil
}
func (s stubCoord) ReportSolution(transport.SolutionReport) (transport.SolutionAck, error) {
	return transport.SolutionAck{}, nil
}

// preloaded returns a farmer over the ta056 numbering with `tracked`
// intervals held by the eight power classes, as the storms preload it.
func preloaded(tracked int, opts ...farmer.Option) (*farmer.Farmer, error) {
	f := farmer.New(stormRoot(), append([]farmer.Option{farmer.WithLeaseTTL(time.Hour)}, opts...)...)
	for i := 0; i < tracked; i++ {
		rep, err := f.RequestWork(transport.WorkRequest{
			Worker: transport.WorkerID(fmt.Sprintf("seed-%d", i)), Power: stormPowers[i%len(stormPowers)],
		})
		if err != nil || rep.Status != transport.WorkAssigned {
			return nil, fmt.Errorf("preload %d: status %v: %v", i, rep.Status, err)
		}
	}
	return f, nil
}

// lifeCycle is one worker life cycle against coord: request with power 1
// (from job, when that is not empty), then retire the donated interval with
// the finished fold [B,B). It is what BenchmarkFarmerRequestThroughput
// prices, and it leaves the table as it found it.
func lifeCycle(coord transport.Coordinator, w transport.WorkerID, job string) error {
	rep, err := coord.RequestWork(transport.WorkRequest{Worker: w, Power: 1, Job: job})
	if err != nil {
		return err
	}
	if rep.Status != transport.WorkAssigned {
		return fmt.Errorf("request answered %v", rep.Status)
	}
	end := rep.Interval.B()
	_, err = coord.UpdateInterval(transport.UpdateRequest{
		Worker: w, Job: rep.Job, IntervalID: rep.IntervalID, Remaining: interval.New(end, end), Power: 1,
	})
	return err
}

// steadyFold returns a fold of w's freshly requested interval that the
// farmer's intersection hands back unchanged, call after call.
func steadyFold(coord transport.Coordinator, w transport.WorkerID) (transport.UpdateRequest, error) {
	rep, err := coord.RequestWork(transport.WorkRequest{Worker: w, Power: 1})
	if err != nil {
		return transport.UpdateRequest{}, err
	}
	mid := rep.Interval.A()
	mid.Add(mid, rep.Interval.B()).Rsh(mid, 1)
	return transport.UpdateRequest{
		Worker: w, IntervalID: rep.IntervalID, Remaining: interval.New(mid, rep.Interval.B()), Power: 1, ExploredDelta: 1,
	}, nil
}

// probeTransport prices a loopback round trip to a no-op coordinator, and
// the bytes one fold and one request put on the socket.
func probeTransport(e *env, n func(int) int) error {
	root := stormRoot()
	srv, err := transport.ServeWith(stubCoord{iv: root}, "127.0.0.1:0", transport.ServerOptions{WireRef: root})
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := transport.DialWith(srv.Addr(), transport.DialOptions{Compact: true})
	if err != nil {
		return err
	}
	defer cli.Close()
	req, err := steadyFold(cli, "probe")
	if err != nil {
		return err
	}
	ns, allocs := probe(n(8_000), func() { _, err = cli.UpdateInterval(req) })
	e.rep.set("transport.stub_rtt_us", ns/1e3)
	e.rep.set("transport.allocs_per_call", allocs)
	if err != nil {
		return err
	}

	// Bytes: a fresh farmer behind the counting proxy, one client, so the
	// counter's movement between two calls belongs to one call. The fold
	// is BenchmarkWireBytesPerFold's: the upper half of the whole root, one
	// delta against the wire reference instead of the two an interior
	// interval pays (the storms' wire_bytes_per_op prices those).
	fsrv, err := transport.ServeWith(farmer.New(root), "127.0.0.1:0", transport.ServerOptions{WireRef: root})
	if err != nil {
		return err
	}
	defer fsrv.Close()
	proxy, err := newCountingProxy(fsrv.Addr())
	if err != nil {
		return err
	}
	defer proxy.Close()
	pc, err := transport.DialWith(proxy.Addr(), transport.DialOptions{Compact: true})
	if err != nil {
		return err
	}
	defer pc.Close()
	fold, err := steadyFold(pc, "bytes")
	if err != nil {
		return err
	}
	if _, err := pc.UpdateInterval(fold); err != nil { // settle the table before counting
		return err
	}
	const rounds = 64
	before := proxy.Total()
	for i := 0; i < rounds; i++ {
		if _, err := pc.UpdateInterval(fold); err != nil {
			return err
		}
	}
	e.rep.set("transport.bytes_per_fold", float64(proxy.Total()-before)/rounds)
	var reqBytes int64
	for i := 0; i < rounds; i++ {
		before = proxy.Total()
		rep, err := pc.RequestWork(transport.WorkRequest{Worker: "bytes-req", Power: 1})
		if err != nil {
			return err
		}
		reqBytes += proxy.Total() - before
		end := rep.Interval.B()
		if _, err := pc.UpdateInterval(transport.UpdateRequest{
			Worker: "bytes-req", IntervalID: rep.IntervalID, Remaining: interval.New(end, end), Power: 1,
		}); err != nil {
			return err
		}
	}
	e.rep.set("transport.bytes_per_request", float64(reqBytes)/rounds)
	return nil
}

// probeFarmer prices direct calls into a farmer at the storm's table size,
// and the same life cycle routed through an eight-job table.
func probeFarmer(e *env, n func(int) int) error {
	f, err := preloaded(e.sc.stormIntervals)
	if err != nil {
		return err
	}
	ns, allocs := probe(n(20_000), func() { err = lifeCycle(f, "probe-req", "") })
	e.rep.set("farmer.request_ns", ns)
	e.rep.set("farmer.allocs_per_request", allocs)
	if err != nil {
		return err
	}
	fold, err := steadyFold(f, "probe-fold")
	if err != nil {
		return err
	}
	ns, allocs = probe(n(100_000), func() { _, err = f.UpdateInterval(fold) })
	e.rep.set("farmer.update_ns", ns)
	e.rep.set("farmer.allocs_per_update", allocs)
	if err != nil {
		return err
	}

	// Eight 50x20 tenants sharing the same tracked total. An untagged
	// request pays the fair-share pick on top of one farmer's selection; a
	// tagged one goes straight to its job's farmer, so the difference on
	// one table is the pick. (The table's farmers are an eighth the size of
	// the single farmer above, so that one is no baseline for this.)
	const tenants = 8
	tb := jobs.NewTable(jobs.Config{MaxActive: tenants, LeaseTTL: time.Hour})
	for j := 0; j < tenants; j++ {
		if err := tb.Submit(fmt.Sprintf("job-%02d", j), jobs.Spec{Domain: "flowshop", Jobs: 50, Machines: 20, Seed: int64(j + 1)}); err != nil {
			return err
		}
	}
	for i := 0; i < e.sc.stormIntervals; i++ {
		rep, err := tb.RequestWork(transport.WorkRequest{
			Worker: transport.WorkerID(fmt.Sprintf("seed-%d", i)), Power: stormPowers[i%len(stormPowers)],
		})
		if err != nil || rep.Status != transport.WorkAssigned {
			return fmt.Errorf("job table preload %d: status %v: %v", i, rep.Status, err)
		}
	}
	jobNS, _ := probe(n(20_000), func() { err = lifeCycle(tb, "probe-req", "") })
	if err != nil {
		return err
	}
	taggedNS, _ := probe(n(20_000), func() { err = lifeCycle(tb, "probe-req", "job-03") })
	e.rep.set("jobs.request_ns", jobNS)
	e.rep.set("jobs.pick_overhead_ns", jobNS-taggedNS)
	return err
}

// memFS is a checkpoint.FS that keeps files in a map: Save through it costs
// serialisation and checksumming and nothing else.
type memFS map[string][]byte

func (m memFS) MkdirAll(string) error { return nil }
func (m memFS) WriteFile(name string, data []byte) error {
	m[name] = append([]byte(nil), data...)
	return nil
}
func (m memFS) Sync(string) error    { return nil }
func (m memFS) SyncDir(string) error { return nil }
func (m memFS) Rename(oldname, newname string) error {
	data, ok := m[oldname]
	if !ok {
		return fs.ErrNotExist
	}
	m[newname] = data
	delete(m, oldname)
	return nil
}
func (m memFS) Remove(name string) error { delete(m, name); return nil }
func (m memFS) ReadFile(name string) ([]byte, error) {
	data, ok := m[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return data, nil
}
func (m memFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, nil }
func (m memFS) Stat(name string) (fs.FileInfo, error) {
	if _, ok := m[name]; !ok {
		return nil, fs.ErrNotExist
	}
	return nil, nil
}

// probeCheckpoint prices one durable snapshot of the storm's table on the
// repository's filesystem, the same Save with the disk taken away, and the
// load back.
func probeCheckpoint(e *env, n func(int) int) error {
	f, err := preloaded(e.sc.stormIntervals)
	if err != nil {
		return err
	}
	snap := checkpoint.Snapshot{Intervals: f.IntervalsSnapshot(), BestCost: bb.Infinity, TotalLen: new(big.Int)}
	for _, rec := range snap.Intervals {
		snap.TotalLen.Add(snap.TotalLen, rec.Interval.Len())
	}
	snap.NextID = int64(len(snap.Intervals))

	dir := filepath.Join(e.outDir, fmt.Sprintf("ckpt-probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	disk, err := checkpoint.NewStore(dir)
	if err != nil {
		return err
	}
	ns, allocs := probe(n(25), func() { err = disk.Save(snap) })
	e.rep.set("checkpoint.save_ns", ns)
	e.rep.set("checkpoint.allocs_per_save", allocs)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && strings.HasPrefix(ent.Name(), "intervals") && !strings.HasSuffix(ent.Name(), ".prev") {
			e.rep.set("checkpoint.file_bytes", float64(info.Size()))
		}
	}
	var back checkpoint.Snapshot
	ns, _ = probe(n(25), func() { back, err = disk.Load() })
	e.rep.set("checkpoint.load_ns", ns)
	if err != nil {
		return err
	}
	if len(back.Intervals) != len(snap.Intervals) {
		return fmt.Errorf("loaded %d records, saved %d", len(back.Intervals), len(snap.Intervals))
	}

	mem, err := checkpoint.NewStoreFS(memFS{}, "mem")
	if err != nil {
		return err
	}
	ns, _ = probe(n(25), func() { err = mem.Save(snap) })
	e.rep.set("checkpoint.serialise_ns", ns)
	return err
}
