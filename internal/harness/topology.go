package harness

import (
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
	"repro/internal/transport"
	"repro/internal/worker"
)

// topology is everything the grid driver does not decide for itself: the
// coordinators a scenario puts in front of the fleet. It answers only what
// genuinely differs between a farmer (with or without sub-farmers) and a
// job table; the loop, the slots, the chaos policy, the bounded-rework
// audit, the disk-fault arming and the trace are the driver's.
type topology struct {
	// endpoints are the chaos-wrapped coordinators the fleet pulls on:
	// slot i attaches to endpoints[i mod n]. One for a flat farmer or a
	// job table, one per sub-farmer under a tree.
	endpoints []transport.Coordinator
	// session starts a fresh worker process for the slot on coord.
	session func(slot int, id transport.WorkerID, coord transport.Coordinator) *worker.Session
	// before runs the tick's scheduled coordinator events ahead of the
	// fleet (root and sub-farmer restarts, disk corruption, job cancels);
	// after runs behind it (the sub→root pulse). Either may be nil.
	before func(tick int) error
	after  func()
	// sweep snapshots every store of the topology, attempting all of them
	// and returning the first error; noteCheckpoint tells every tracker
	// whose store the sweep covered that its generation rotated.
	sweep          func() error
	noteCheckpoint func()
	// done reports (and traces) the end of the resolution.
	done func() bool
	// unreportedPeriods bounds, in update periods, the nodes a session may
	// hold unreported when it dies: one for a single-engine session, two
	// for a multi-job one (a mid-period engine plus a pending retry on
	// another job).
	unreportedPeriods int64
}

// The two hops of a farmer tree, as the trace names them.
const (
	legWorker = "w"
	legUp     = "up"
)

// farmerTree is the single-resolution topology: one root farmer behind
// the classic conformance tracker and, between it and the fleet, zero or
// more sub-farmers, each with its own checkpoint store and sub-tier
// tracker. With no sub-farmers the fleet pulls on the root directly —
// the flat grid of the paper.
//
// The audit is two-tier (DESIGN.md §9):
//
//   - root tier: the unchanged conformance tracker — allocation conserves
//     the root union, folds only shrink it and the removals are covered
//     work, termination covers the root range exactly (§5 invariants);
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
type farmerTree struct {
	g   *grid
	sc  *Scenario
	rep *Report

	rootRange interval.Interval
	rootDir   string
	rootStore *checkpoint.Store
	rootTrack *tracker

	// tree is the coordinator itself; up is the chaos-wrapped root
	// endpoint its sub-farmers fold into.
	tree      *farmer.Tree
	up        transport.Coordinator
	subTracks []*subTracker
	endpoints []transport.Coordinator
}

// newFarmerTree builds the root tier under dir and the sub tier under
// dir/sub-<i>, every store opened through the grid's fault seam.
func newFarmerTree(g *grid, sc *Scenario, rep *Report, dir string) (*farmerTree, error) {
	t := &farmerTree{g: g, sc: sc, rep: rep, rootDir: dir}
	t.rootRange = core.NewNumbering(sc.Factory().Shape()).RootRange()

	var err error
	if t.rootStore, err = checkpoint.NewStoreFS(g.fs, dir); err != nil {
		return nil, err
	}
	rootOpts := []farmer.Option{
		farmer.WithLeaseTTL(g.leaseTTL()),
		farmer.WithCheckpointStore(t.rootStore),
	}
	if sc.InitialUpper < bb.Infinity {
		rootOpts = append(rootOpts, farmer.WithInitialBest(sc.InitialUpper, nil))
	}
	if sc.Endgame {
		// The simulator's default threshold: 1e-6 of the root range.
		thr := new(big.Int).Div(t.rootRange.Len(), big.NewInt(1_000_000))
		if thr.Sign() <= 0 {
			thr = big.NewInt(2)
		}
		rootOpts = append(rootOpts, farmer.WithThreshold(thr))
	}
	t.rootTrack = newTracker(t.rootRange)
	var storeErr error
	t.tree = farmer.NewTree(t.rootRange, farmer.TreeConfig{
		Subtrees:        sc.Subtrees,
		SubUpdateEvery:  sc.SubUpdateEvery,
		SubUpdatePeriod: time.Second, // one virtual tick
		FleetTTL:        g.leaseTTL(),
		Endgame:         sc.Endgame,
		Clock:           g.clock,
		RootOptions:     rootOpts,
		InnerOptions:    []farmer.Option{farmer.WithLeaseTTL(g.leaseTTL())},
		StoreFor: func(i int) *checkpoint.Store {
			store, err := checkpoint.NewStoreFS(g.fs, filepath.Join(dir, fmt.Sprintf("sub-%d", i)))
			if storeErr == nil {
				storeErr = err
			}
			return store
		},
		Upstream: func(*farmer.Farmer) transport.Coordinator {
			t.up = g.intercept(t.rootTrack, legUp)
			return t.up
		},
	})
	if storeErr != nil {
		return nil, storeErr
	}
	t.rootTrack.attach(t.tree.Root)

	for i, sub := range t.tree.Subs {
		track := &subTracker{rec: &g.recorder, root: t.rootTrack, name: fmt.Sprintf("sub-%d", i), sub: sub, lastCkpt: interval.NewSet()}
		t.subTracks = append(t.subTracks, track)
		t.endpoints = append(t.endpoints, g.intercept(track, legWorker))
	}
	if len(t.endpoints) == 0 {
		t.endpoints = []transport.Coordinator{g.intercept(t.rootTrack, "")}
	}
	return t, nil
}

func (t *farmerTree) topology() topology {
	return topology{
		endpoints:         t.endpoints,
		session:           t.session,
		before:            t.before,
		after:             t.tree.Pulse,
		sweep:             t.sweep,
		noteCheckpoint:    t.noteCheckpoint,
		done:              t.done,
		unreportedPeriods: 1,
	}
}

// session starts a single-job worker: heterogeneous by construction
// (power grows with the slot), scaled by cores.
func (t *farmerTree) session(i int, id transport.WorkerID, coord transport.Coordinator) *worker.Session {
	return worker.NewShardedSession(worker.Config{
		ID:                id,
		Power:             (1 + int64(i)) * int64(max(t.sc.Cores, 1)),
		UpdatePeriodNodes: t.sc.UpdatePeriodNodes,
		Cores:             t.sc.Cores,
	}, coord, t.sc.Factory)
}

// before runs the tick's coordinator faults: root restarts, on-disk
// corruption of the root snapshot, then sub-farmer restarts.
func (t *farmerTree) before(tick int) error {
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
	return nil
}

// sweep snapshots the root and every sub-farmer, root first.
func (t *farmerTree) sweep() error {
	first := t.tree.Root.Checkpoint()
	for _, sub := range t.tree.Subs {
		if err := sub.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *farmerTree) noteCheckpoint() {
	t.rootTrack.noteCheckpoint()
	for _, st := range t.subTracks {
		st.noteCheckpoint()
	}
}

func (t *farmerTree) done() bool {
	if !t.tree.Root.Done() {
		return false
	}
	t.g.tracef("done best=%d", t.tree.Root.Best().Cost)
	return true
}

// settle runs the termination folds: pulse every subtree past its period
// so each one reconciles and learns the verdict. A few rounds, because the
// chaos layer may drop a fold's reply — the retry-on-next-cadence rule is
// exactly the protocol's answer to that.
func (t *farmerTree) settle() {
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

// corruptIntervals flips one byte in the middle of the root's current
// intervals snapshot — the silent on-disk corruption the CRC footer exists
// to catch.
func (t *farmerTree) corruptIntervals() {
	path := filepath.Join(t.rootDir, "intervals.ckpt")
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
	t.rep.CorruptInjections++
	t.g.tracef("disk-corrupt n=%d", t.rep.CorruptInjections)
}

// restartRoot kills the root farmer and restores it from the latest
// snapshot — or from scratch when none exists. Its clients keep their
// connection object (the interceptor wraps the tracker, and the tracker
// re-attaches to the restored incarnation) exactly like real workers
// reconnect to a restarted coordinator address; under a tree the
// sub-farmers' next folds hit the new epoch, collect Known:false verdicts
// for stale bindings, and refill — the §4.1 composition of root restarts
// with live subtrees. A restore that had to fall back past a corrupt
// current generation is audited against the previous one.
func (t *farmerTree) restartRoot() error {
	before := t.rootStore.Stats().FallbackLoads
	f, err := farmer.Restore(t.rootRange, t.rootStore, t.tree.RootOptions...)
	if err != nil {
		return err
	}
	fellBack := t.rootStore.Stats().FallbackLoads > before
	t.tree.Root = f
	t.rootTrack.attach(f)
	t.rootTrack.noteRestart(fellBack)
	t.rep.Restarts++
	t.g.tracef("farmer-restart n=%d fallback=%v", t.rep.Restarts, fellBack)
	return nil
}

// restartSub crashes sub-farmer i and restores it from its own store —
// the §4.1 mechanics replayed one tier up. The fleet keeps its endpoint
// (the chaos interceptor and tracker), exactly like real workers keep the
// address of a restarted coordinator.
func (t *farmerTree) restartSub(i int) error {
	sub, err := farmer.RestoreSubFarmer(t.tree.SubConfig(i), t.up)
	if err != nil {
		return err
	}
	t.tree.Subs[i] = sub
	t.subTracks[i].noteRestart(sub)
	t.rep.Restarts++
	t.g.tracef("sub-restart sub=%d n=%d", i, t.rep.Restarts)
	return nil
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
