package harness

import (
	"cmp"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/jobs"
	"repro/internal/transport"
	"repro/internal/worker"
)

// The two hops of a farmer tree, as the trace names them.
const (
	legWorker = "w"
	legUp     = "up"
)

// topology is everything the grid driver does not decide for itself: the
// coordinators a scenario puts in front of the fleet. It is always one
// jobs.Table. A single resolution is the table with one job, whose root
// may sit behind a tier of sub-farmers (a farmer tree, DESIGN.md §9); a
// multi-tenant scenario is the table with several jobs, pulled on
// directly by multi-job workers. The loop, the slots, the chaos policy,
// the bounded-rework audit, the disk-fault arming and the trace are the
// driver's.
//
// Conformance is per job: every job's farmer sits behind its own tracker
// (the interval-algebra auditor of conformance.go), hung on the table's
// Wrap hook so it sees exactly the messages routed to its job and
// re-attaches when a restart resubmits the job. Every route into the table
// passes the cross-job leak check (leakCheck). Under a tree the audit is
// two-tier:
//
//   - root tier: the job's tracker — allocation conserves the root union,
//     folds only shrink it and the removals are covered work,
//     termination covers the root range exactly (§5 invariants);
//   - sub tier (per sub-farmer): INTERVALS entries stay pairwise
//     disjoint; fleet messages never grow the local table except at a
//     refill, and refill growth must be ground the root simultaneously
//     tracks (work enters a subtree only from the tier above, never from
//     thin air); a restore must reproduce the last local snapshot.
//
// Mid-run a lagging subtree may legitimately cover ground the root
// already saw consumed elsewhere — the duplicated-interval semantics
// under lazy propagation — which is why sub-tier coverage is audited
// through growth/shrink deltas rather than naive containment.
type topology struct {
	g   *grid
	sc  *Scenario
	dir string

	store     *checkpoint.Store
	table     *jobs.Table
	factories map[string]func() bb.Problem
	roots     map[string]interval.Interval
	baselines map[string]bb.Solution
	tracks    map[string]*tracker

	// tree is the last job's farmer tree: a single job's, with its
	// sub-farmer tier (none when flat), or a flat one over the whole
	// table. up is the chaos-wrapped root its sub-farmers fold into.
	tree      *farmer.Tree
	up        transport.Coordinator
	subTracks []*subTracker
	// endpoints are the chaos-wrapped coordinators the fleet pulls on:
	// slot i attaches to endpoints[i mod n]. One for a flat job or a
	// multi-job table, one per sub-farmer under a tree.
	endpoints []transport.Coordinator
	// unreportedPeriods bounds, in update periods, the nodes a session may
	// hold unreported when it dies: one for a single-engine session, two
	// for a multi-job one (a mid-period engine plus a pending retry on
	// another job).
	unreportedPeriods int64
}

// newTopology builds the table over a store under dir, each job's oracle,
// tracker and farmer tree (sub-farmer stores under dir/sub-<i>), every
// store opened through the grid's fault seam, and submits the jobs.
func newTopology(g *grid, sc *Scenario, dir string) (*topology, error) {
	t := &topology{
		g: g, sc: sc, dir: dir,
		factories: make(map[string]func() bb.Problem),
		roots:     make(map[string]interval.Interval),
		baselines: make(map[string]bb.Solution),
		tracks:    make(map[string]*tracker),
	}
	var err error
	if t.store, err = checkpoint.NewStoreFS(g.fs, dir); err != nil {
		return nil, err
	}
	// A run starts fresh: the table would resume a snapshot already in
	// dir, and the oracle audits every job from its root range.
	if held, err := t.store.Namespaces(); err != nil || len(held) > 0 {
		return nil, cmp.Or(err, fmt.Errorf("harness: %s already holds snapshots of %v: a run starts fresh", dir, held))
	}
	t.table = jobs.NewTable(jobs.Config{
		MaxActive: len(sc.Jobs),
		Store:     t.store,
		Clock:     g.clock,
		LeaseTTL:  g.leaseTTL(),
		Wrap: func(id string, f *farmer.Farmer) transport.Coordinator {
			tr := t.tracks[id]
			if tr == nil {
				tr = newTracker(t.roots[id])
				t.tracks[id] = tr
			}
			tr.attach(f)
			return tr
		},
	})
	// Baselines first (the sequential oracle per job), and the root map —
	// the Wrap hook fires inside Submit and needs the roots populated.
	for _, j := range sc.Jobs {
		factory, err := j.Spec.Factory()
		if err != nil {
			return nil, err
		}
		t.factories[j.ID] = factory
		t.roots[j.ID] = core.NewNumbering(factory().Shape()).RootRange()
		t.baselines[j.ID], _ = bb.Solve(factory(), sc.InitialUpper)
	}
	return t, t.submit()
}

// rootOptions are the farmer options a job's root is built with: the
// scenario lease and primed incumbent and, under Endgame, the simulator's
// default duplication threshold, 1e-6 of the job's root range.
func (t *topology) rootOptions(id string) []farmer.Option {
	opts := []farmer.Option{farmer.WithLeaseTTL(t.g.leaseTTL())}
	if t.sc.InitialUpper < bb.Infinity {
		opts = append(opts, farmer.WithInitialBest(t.sc.InitialUpper, nil))
	}
	if t.sc.Endgame {
		thr := new(big.Int).Div(t.roots[id].Len(), big.NewInt(1_000_000))
		if thr.Sign() <= 0 {
			thr = big.NewInt(2)
		}
		opts = append(opts, farmer.WithThreshold(interval.NumBig(thr)))
	}
	return opts
}

// submit wires the fleet to the table and submits the jobs. A single
// job's farmer tree folds into the job's chaos-wrapped endpoint and may
// have sub-farmers; several jobs get a flat tree over the chaos-wrapped
// table itself, which their multi-job workers pull on untagged. Every job
// is submitted with the root options the tree derives for it.
func (t *topology) submit() error {
	g, sc := t.g, t.sc
	var root transport.Coordinator = leakCheck{t, t.table}
	t.unreportedPeriods = 2
	if len(sc.Jobs) == 1 {
		root = leakCheck{t, t.table.Endpoint(sc.Jobs[0].ID)}
		t.unreportedPeriods = 1
	}
	if sc.Subtrees >= 2 {
		t.up = g.intercept(root, legUp)
	} else {
		t.up = g.intercept(root, "")
	}
	var storeErr error
	for _, j := range sc.Jobs {
		t.tree = farmer.NewTree(farmer.TreeConfig{
			Subtrees:        sc.Subtrees,
			SubUpdateEvery:  sc.SubUpdateEvery,
			SubUpdatePeriod: time.Second, // one virtual tick
			FleetTTL:        g.leaseTTL(),
			Endgame:         sc.Endgame,
			Clock:           g.clock,
			RootOptions:     t.rootOptions(j.ID),
			InnerOptions:    []farmer.Option{farmer.WithLeaseTTL(g.leaseTTL())},
			StoreFor: func(i int) *checkpoint.Store {
				store, err := checkpoint.NewStoreFS(g.fs, filepath.Join(t.dir, fmt.Sprintf("sub-%d", i)))
				if storeErr == nil {
					storeErr = err
				}
				return store
			},
			Upstream: t.up,
		})
		if storeErr != nil {
			return storeErr
		}
		if err := t.table.Submit(j.ID, j.Spec, t.tree.RootOptions...); err != nil {
			return err
		}
	}
	for i, sub := range t.tree.Subs {
		track := &subTracker{rec: &g.recorder, root: t.tracks[sc.Jobs[0].ID], name: fmt.Sprintf("sub-%d", i), sub: sub, lastCkpt: interval.NewSet()}
		t.subTracks = append(t.subTracks, track)
		t.endpoints = append(t.endpoints, g.intercept(track, legWorker))
	}
	if len(t.endpoints) == 0 {
		t.endpoints = []transport.Coordinator{t.up}
	}
	return nil
}

// session starts a fresh worker process for the slot on coord:
// heterogeneous by construction (power grows with the slot), scaled by
// cores; a multi-job session when the table holds several jobs.
func (t *topology) session(i int, id transport.WorkerID, coord transport.Coordinator) *worker.Session {
	cfg := worker.Config{
		ID:                id,
		Power:             (1 + int64(i)) * int64(max(t.sc.Cores, 1)),
		UpdatePeriodNodes: t.sc.UpdatePeriodNodes,
		Cores:             t.sc.Cores,
	}
	if len(t.sc.Jobs) > 1 {
		return worker.NewMultiJobSession(cfg, coord, func(jobID string) (func() bb.Problem, bool) {
			f, ok := t.factories[jobID]
			return f, ok
		})
	}
	return worker.NewShardedSession(cfg, coord, t.factories[t.sc.Jobs[0].ID])
}

// before runs the tick's coordinator faults: root restarts, on-disk
// corruption of the root snapshot, sub-farmer restarts, then the operator
// pulling jobs.
func (t *topology) before(tick int) error {
	for _, rt := range t.sc.FarmerRestarts {
		if rt == tick {
			if err := t.restartRoot(); err != nil {
				return err
			}
		}
	}
	for _, ct := range t.sc.CorruptTicks {
		if ct == tick {
			t.corruptIntervals()
		}
	}
	for _, r := range t.sc.SubRestarts {
		if r.Tick == tick {
			if err := t.restartSub(r.Sub); err != nil {
				return err
			}
		}
	}
	for _, j := range t.sc.Jobs {
		if j.CancelAt > 0 && j.CancelAt == tick {
			if err := t.table.Cancel(j.ID); err != nil {
				t.g.tracef("cancel job=%s err=%v", j.ID, err)
			} else {
				t.g.tracef("cancel job=%s", j.ID)
			}
		}
	}
	return nil
}

// sweep snapshots every running job, then every sub-farmer, attempting all
// of them and returning the first error.
func (t *topology) sweep() error {
	first := t.table.Checkpoint()
	for _, sub := range t.tree.Subs {
		if err := sub.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// noteCheckpoint tells every tracker whose store the sweep covered — the
// running jobs' and every sub-farmer's — that its generation rotated.
func (t *topology) noteCheckpoint() {
	for _, p := range t.table.List() {
		if p.State == jobs.Running.String() {
			t.tracks[p.ID].noteCheckpoint()
		}
	}
	for _, st := range t.subTracks {
		st.noteCheckpoint()
	}
}

// done reports (and traces) the end of the run: every job terminal.
func (t *topology) done() bool {
	if !t.table.Done() {
		return false
	}
	if len(t.sc.Jobs) > 1 {
		t.g.tracef("done")
	} else {
		p, _ := t.table.Progress(t.sc.Jobs[0].ID)
		t.g.tracef("done best=%d", p.BestCost)
	}
	return true
}

// settle runs the termination folds: pulse every subtree past its period
// so each one reconciles and learns the verdict. A few rounds, because the
// chaos layer may drop a fold's reply — the retry-on-next-cadence rule is
// exactly the protocol's answer to that.
func (t *topology) settle() {
	for round := 0; round < 4; round++ {
		t.g.nowNano += int64(time.Minute)
		t.tree.Pulse()
	}
	for i, sub := range t.tree.Subs {
		if card, totalLen := sub.Inner().Size(); card != 0 {
			t.g.violatef("sub-%d: %d intervals (%s units) left after the termination folds", i, card, totalLen)
		}
	}
}

// conclude fills the report with every job's verdict: a surviving job must
// be done and proven, a cancelled job proves nothing — its only
// obligations are the tracker laws while it ran.
func (t *topology) conclude() error {
	g, rep := t.g, t.g.rep
	var trackers []*tracker
	var proven []outcome
	for _, j := range t.sc.Jobs {
		p, err := t.table.Progress(j.ID)
		if err != nil {
			return err
		}
		best := bb.Solution{Cost: p.BestCost, Path: p.BestPath}
		if len(rep.Jobs) == 0 {
			rep.Best, rep.Baseline, rep.Counters = best, t.baselines[j.ID], p.Counters
		}
		rep.Jobs = append(rep.Jobs, p)
		tr, ok := t.tracks[j.ID]
		if ok {
			trackers = append(trackers, tr)
		}
		want := jobs.Done.String()
		if j.CancelAt > 0 {
			want = jobs.Cancelled.String()
		}
		if p.State != want {
			g.violatef("job %s: state %s, want %s", j.ID, p.State, want)
		} else if ok && want == jobs.Done.String() {
			tr.noteTermination()
			proven = append(proven, outcome{
				who:     fmt.Sprintf("job %s: ", j.ID),
				factory: t.factories[j.ID], best: best, baseline: t.baselines[j.ID],
			})
		}
		if ok {
			rep.OverlapUnits.Add(rep.OverlapUnits, tr.overlap)
			rep.ReworkBudget.Add(rep.ReworkBudget, tr.reworkBudget)
		}
	}
	g.conclude(trackers, proven...)
	for _, sub := range t.tree.Subs {
		c := sub.Counters()
		rep.Refills += c.Refills
		rep.LowWaterRefills += c.LowWaterRefills
		rep.UpstreamTimeouts += c.UpstreamTimeouts
	}
	rep.Table = t.table.Counters()
	return nil
}

// corruptIntervals flips one byte in the middle of the root's current
// intervals snapshot, in its job's namespace — the silent on-disk
// corruption the CRC footer exists to catch.
func (t *topology) corruptIntervals() {
	path := filepath.Join(t.dir, t.sc.Jobs[0].ID, "intervals.ckpt")
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.g.tracef("disk-corrupt-skipped err=%v", err)
		return
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.g.tracef("disk-corrupt-skipped err=%v", err)
		return
	}
	t.g.rep.CorruptInjections++
	t.g.tracef("disk-corrupt n=%d", t.g.rep.CorruptInjections)
}

// restartRoot kills the root farmer and restores it from the latest
// snapshot — or from scratch when none exists: the job is cancelled and
// resubmitted under its id with its tree's root options, which resumes it
// from its namespace. Its clients keep their connection
// object (the interceptor wraps the job's endpoint, and the tracker
// re-attaches to the restored incarnation through Wrap) exactly like real
// workers reconnect to a restarted coordinator address; under a tree the
// sub-farmers' next folds hit the new epoch, collect Known:false verdicts
// for stale bindings, and refill — the §4.1 composition of root restarts
// with live subtrees. A restore that had to fall back past a corrupt
// current generation is audited against the previous one.
func (t *topology) restartRoot() error {
	j := t.sc.Jobs[0]
	before := t.store.Stats().FallbackLoads
	if err := t.table.Cancel(j.ID); err != nil {
		return err
	}
	if err := t.table.Submit(j.ID, j.Spec, t.tree.RootOptions...); err != nil {
		return err
	}
	fellBack := t.store.Stats().FallbackLoads > before
	t.tracks[j.ID].noteRestart(fellBack)
	t.g.rep.Restarts++
	t.g.tracef("farmer-restart n=%d fallback=%v", t.g.rep.Restarts, fellBack)
	return nil
}

// restartSub crashes sub-farmer i and restores it from its own store —
// the §4.1 mechanics replayed one tier up. The fleet keeps its endpoint
// (the chaos interceptor and tracker), exactly like real workers keep the
// address of a restarted coordinator.
func (t *topology) restartSub(i int) error {
	sub, err := farmer.RestoreSubFarmer(t.tree.SubConfig(i), t.up)
	if err != nil {
		return err
	}
	t.tree.Subs[i] = sub
	t.subTracks[i].noteRestart(sub)
	t.g.rep.Restarts++
	t.g.tracef("sub-restart sub=%d n=%d", i, t.g.rep.Restarts)
	return nil
}

// leakCheck wraps a route into the table — the table itself, or one job's
// endpoint — with the cross-job isolation property, checked on the wire
// where a worker would see the breach: every assignment must name a known
// job and stay inside that job's root range. (Each job's tracker would
// also catch a leak, as a partition violation; this check names the
// culprit directly.)
type leakCheck struct {
	t     *topology
	inner transport.Coordinator
}

func (c leakCheck) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	rep, err := c.inner.RequestWork(req)
	if err == nil && rep.Status == transport.WorkAssigned {
		root, ok := c.t.roots[rep.Job]
		switch {
		case !ok:
			c.t.g.violatef("assignment to %s names unknown job %q", req.Worker, rep.Job)
		case !root.ContainsInterval(rep.Interval):
			c.t.g.violatef("cross-job leak: job %s assigned %s outside its root %s",
				rep.Job, rep.Interval.String(), root.String())
		}
	}
	return rep, err
}

func (c leakCheck) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	return c.inner.UpdateInterval(req)
}

func (c leakCheck) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	return c.inner.ReportSolution(req)
}

// subTracker is the sub-tier conformance layer: a Coordinator middleware
// between a sub-farmer's fleet (behind the chaos interceptor) and the
// sub-farmer itself.
type subTracker struct {
	rec  *recorder
	root *tracker
	name string
	sub  *farmer.SubFarmer
	// lastCkpt is the local INTERVALS content at the last sub snapshot;
	// a restore must reproduce it exactly (§4.1 at this tier).
	lastCkpt *interval.Set
}

// union reads the sub-farmer's table, checking pairwise disjointness.
func (t *subTracker) union() *interval.Set {
	s := interval.NewSet()
	for _, rec := range t.sub.IntervalsSnapshot() {
		if ov := s.Add(rec.Interval); ov.Sign() != 0 {
			t.rec.violatef("%s: INTERVALS entries overlap at id %d by %s units", t.name, rec.ID, ov)
		}
	}
	return s
}

// audit wraps one fleet-facing delivery with the sub-tier growth law: the
// local table may only grow during a refill, and what it gains must be
// ground the root tracks at that same moment.
func (t *subTracker) audit(op string, call func() error) error {
	before := t.union()
	refillsBefore := t.sub.Counters().Refills
	err := call()
	after := t.union()
	if grown := interval.SetDiff(after, before); !grown.IsEmpty() {
		if t.sub.Counters().Refills == refillsBefore {
			t.rec.violatef("%s: %s grew the local table by %s without a refill", t.name, op, grown)
		} else if stray := interval.SetDiff(grown, t.root.union()); !stray.IsEmpty() {
			t.rec.violatef("%s: refill gained %s that the root does not track", t.name, stray)
		}
	}
	return err
}

func (t *subTracker) RequestWork(req transport.WorkRequest) (reply transport.WorkReply, err error) {
	err = t.audit("RequestWork", func() (e error) {
		reply, e = t.sub.RequestWork(req)
		return e
	})
	return reply, err
}

func (t *subTracker) UpdateInterval(req transport.UpdateRequest) (reply transport.UpdateReply, err error) {
	err = t.audit("UpdateInterval", func() (e error) {
		reply, e = t.sub.UpdateInterval(req)
		return e
	})
	return reply, err
}

func (t *subTracker) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	before := t.union()
	ack, err := t.sub.ReportSolution(req)
	if after := t.union(); !after.Equal(before) {
		t.rec.violatef("%s: ReportSolution changed the local table", t.name)
	}
	return ack, err
}

// noteCheckpoint records the table content saved by the sub snapshot.
func (t *subTracker) noteCheckpoint() { t.lastCkpt = t.union() }

// noteRestart points the tracker at the restored incarnation and audits
// the §4.1 restore at this tier: the local table must be exactly the last
// snapshot (the binding may lag — that is the parent's lease story).
func (t *subTracker) noteRestart(sub *farmer.SubFarmer) {
	t.sub = sub
	if restored := t.union(); !restored.Equal(t.lastCkpt) {
		t.rec.violatef("%s: restore disagrees with last checkpoint: %s != %s", t.name, restored, t.lastCkpt)
	}
}

var _ transport.Coordinator = (*subTracker)(nil)
