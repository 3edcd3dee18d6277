// Package harness is a deterministic in-process grid: it composes the real
// farmer, real sub-farmers, the real job table, real worker sessions, the
// real two-file checkpoint store and the real p2p ring over an
// instrumented transport with seeded fault injection (message
// drop/duplication/black-holing, worker kill-and-rejoin, coordinator
// restart from its checkpoint files, disk faults), and holds every run to
// the paper's invariants as machine-checked conformance properties (see
// conformance.go and DESIGN.md §5).
//
// Everything runs in one goroutine under a virtual clock: worker sessions
// are advanced in seeded-shuffled order with seeded budgets, every fault is
// drawn from the scenario's rng, and every event is appended to a trace —
// equal seeds give byte-identical traces, so every failure reproduces, and
// the trace of every named scenario is committed under testdata/ so a
// refactor is held to the run the goldens were cut from (`make golden`
// regenerates them; a behaviour-preserving change never needs to).
//
// There is one driver and one coordinator shape. The grid type owns the
// event loop, the worker slots, the chaos policy, the bounded-rework
// audit, the fault-armed checkpoint sweep and the trace; the topology (see
// topology.go) is always a job table — a single resolution is the table
// with one job, its root optionally behind a tier of sub-farmers, and a
// multi-tenant run is the same table with several jobs served by
// multi-job workers. The statistics and the failures are produced by the
// real protocol code, not a model of it: the chaos layer is
// transport.Interceptor middleware and the conformance layer is itself a
// transport.Coordinator.
package harness

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/farmer"
	"repro/internal/jobs"
	"repro/internal/transport"
	"repro/internal/worker"
)

// KillEvent schedules a worker crash: the session on Slot dies at Tick
// without any goodbye (no final checkpoint — the §4.1 worker failure), and
// a fresh session joins on the same slot RejoinAfter ticks later (0: the
// slot stays empty for good).
type KillEvent struct {
	Tick, Slot, RejoinAfter int
}

// Fleet is the worker fleet and its fault schedule: the knobs every
// farmer-style scenario shares, whatever topology coordinates it.
type Fleet struct {
	// Seed drives every random decision; equal seeds reproduce the run
	// event for event.
	Seed int64
	// Workers is the number of slots. Default 3.
	Workers int
	// UpdatePeriodNodes is the worker checkpoint period. Default 256.
	UpdatePeriodNodes int64
	// TickBudget is the mean node budget per worker per tick (each tick
	// draws a jittered value around it — hosts are heterogeneous).
	// Default 512.
	TickBudget int64
	// LeaseTTLTicks is the coordinator lease in virtual ticks (1 tick = 1
	// virtual second). Default 3.
	LeaseTTLTicks int
	// CheckpointEvery snapshots every coordinator of the topology every so
	// many ticks (0: only the implicit initial state).
	CheckpointEvery int
	// DiskFaultEvery fails every Nth checkpoint sweep with an injected EIO
	// on every snapshot fsync of the sweep: each save aborts cleanly before
	// any rename, the on-disk generations stay whole, and the next restart
	// simply re-opens a larger window. The fault covers the whole sweep —
	// every tier of a tree, every job of a table — so no partial subset of
	// the stores is ever persisted.
	DiskFaultEvery int
	// Kills schedules worker crashes.
	Kills []KillEvent
	// DropRequestPct / DropReplyPct / DuplicatePct are per-message fault
	// percentages (0..100, cumulative must stay ≤ 100).
	DropRequestPct, DropReplyPct, DuplicatePct int
	// BlackholePct black-holes messages: the coordinator never sees
	// them and the caller gets transport.ErrDeadline, modelling a
	// stalled peer behind the hardened transport's call deadline. It
	// joins the other fault percentages in the ≤ 100 cumulative budget
	// and applies to both tree legs.
	BlackholePct int
	// MaxTicks aborts a stuck scenario. Default 5000.
	MaxTicks int
}

func (f *Fleet) fillDefaults() {
	if f.Workers <= 0 {
		f.Workers = 3
	}
	if f.UpdatePeriodNodes <= 0 {
		f.UpdatePeriodNodes = 256
	}
	if f.TickBudget <= 0 {
		f.TickBudget = 512
	}
	if f.LeaseTTLTicks <= 0 {
		f.LeaseTTLTicks = 3
	}
	if f.MaxTicks <= 0 {
		f.MaxTicks = 5000
	}
}

// Scenario is one named fault schedule over one problem instance — or, with
// Jobs set, over several concurrent jobs of one job table.
type Scenario struct {
	// Name identifies the scenario in reports and test names.
	Name string
	Fleet
	// Factory returns a fresh Problem per call (one per worker and one
	// for the sequential baseline). Ignored when Jobs is set.
	Factory func() bb.Problem
	// Jobs, when set, makes the run multi-tenant: every job is submitted
	// to the one job table, every worker is a multi-job session serving
	// whichever job fair share routes it to, and every job gets its own
	// conformance tracker. Several jobs reject Subtrees ≥ 2,
	// FarmerRestarts and CorruptTicks. Empty: one job over Factory. All
	// of them run at once.
	Jobs []Job
	// Cores makes every worker a multicore one: Cores shard explorers
	// over a tiling of its interval, stepped deterministically inside the
	// session (the shard engine's stepped scheduler), so chaos runs with
	// multicore workers still produce byte-identical traces. Zero or one
	// keeps the paper's single-explorer worker.
	Cores int
	// FarmerRestarts lists ticks at which the (root) farmer process is
	// killed and restored from its latest snapshot: the job is cancelled
	// and resubmitted under the same id, which resumes it from its
	// namespace.
	FarmerRestarts []int
	// CorruptTicks lists ticks at which a byte of the (root) farmer's
	// current intervals snapshot, in the job's namespace directory, is
	// flipped on disk: a later restart must quarantine the corrupt
	// generation and fall back to *.prev.
	CorruptTicks []int
	// InitialUpper primes SOLUTION (0: Infinity).
	InitialUpper int64
	// Dir, when set, hosts the checkpoint stores (each job's under
	// Dir/<job-id>, a sub-farmer's under Dir/sub-<i>) and must hold no
	// snapshot yet; empty uses a private temporary directory removed at
	// the end of the run.
	Dir string
	// Subtrees is farmer.TreeConfig.Subtrees: ≥ 2 puts that many
	// sub-farmers between the fleet and the farmer (DESIGN.md §9),
	// workers attach to sub-farmers round-robin, sub-farmers speak the
	// unchanged protocol to the root, and the conformance layer audits
	// both tiers. Below 2 the fleet pulls on the farmer directly — the
	// flat grid is the tree with no sub-farmers.
	Subtrees int
	// SubUpdateEvery is the sub→root fold cadence in fleet messages.
	// Default 4.
	SubUpdateEvery int64
	// SubRestarts schedules sub-farmer crashes: the sub-farmer on Sub
	// dies at Tick and is restored from its own checkpoint store, binding
	// file included, while its fleet keeps hammering the same endpoint.
	SubRestarts []SubRestart
	// Endgame sets the root's duplication threshold to the simulator's
	// default, 1e-6 of the root range, and arms farmer.TreeConfig.Endgame
	// on it: under a tree, steal hints and endgame crumb duplication at
	// the root, low-water pre-fetch and gap/content-honest folds at the
	// subs, and the fan-out-scaled inner threshold, all derived by the
	// tree exactly as it derives them for the grid simulator, so the
	// chaos matrix exercises the same code paths the 10k-fleet scenario
	// measures. On a flat grid only the threshold changes.
	Endgame bool
}

// SubRestart schedules a sub-farmer crash-and-restore at Tick.
type SubRestart struct {
	Tick, Sub int
}

// Job is one job of a scenario's table.
type Job struct {
	// ID keys the job (and its checkpoint namespace).
	ID string
	// Spec describes the instance; its Weight is the fair-share weight.
	Spec jobs.Spec
	// CancelAt cancels the job at this tick (0: run to completion).
	CancelAt int
}

// fillDefaults also resolves the job list: a scenario without Jobs is one
// job over Factory, in the default checkpoint namespace. It rejects the
// configurations several jobs do not support.
func (s *Scenario) fillDefaults() error {
	s.Fleet.fillDefaults()
	if s.InitialUpper <= 0 {
		s.InitialUpper = bb.Infinity
	}
	if s.SubUpdateEvery <= 0 {
		s.SubUpdateEvery = 4
	}
	if len(s.Jobs) == 0 {
		s.Jobs = []Job{{ID: checkpoint.DefaultNamespace, Spec: jobs.Spec{Problem: s.Factory}}}
	}
	if len(s.Jobs) > 1 && (s.Subtrees >= 2 || len(s.FarmerRestarts) > 0 || len(s.CorruptTicks) > 0) {
		return fmt.Errorf("harness: %s: %d jobs with sub-farmers, root restarts or disk corruption; those are single-job faults", s.Name, len(s.Jobs))
	}
	return nil
}

// Tally is the part of a run's outcome every driver produces: the trace,
// the verdict and the fault bookkeeping. A run is conformant iff
// Violations is empty and Finished is true.
type Tally struct {
	// Name echoes the scenario.
	Name string
	// Trace is the deterministic event log (same seed ⇒ same trace).
	Trace []string
	// Violations lists every conformance breach, empty on a clean run.
	Violations []string
	// Ticks is the virtual duration; Finished whether the work drained.
	Ticks    int
	Finished bool
	// Fault bookkeeping: messages dropped and duplicated, workers killed
	// and rejoined, checkpoint sweeps written.
	Drops, Duplicates, Kills, Rejoins, Checkpoints int
	// DiskFaults counts checkpoint sweeps killed by injected I/O errors.
	DiskFaults int
	// Timeouts counts black-holed calls that surfaced as ErrDeadline to a
	// worker.
	Timeouts int
}

// Report is the outcome of a scenario (Run, RunRing).
type Report struct {
	Tally
	// Best is the (first) resolution's answer; Baseline the sequential
	// oracle's.
	Best, Baseline bb.Solution
	// Jobs holds every job's final state (incumbent and farmer counters
	// included) in submission order, and Table the job table's tallies;
	// both empty for the ring.
	Jobs  []jobs.Progress
	Table jobs.Counters
	// Restarts counts coordinator restarts (root and sub-farmer alike; for
	// the ring, peer restores).
	Restarts int
	// CorruptInjections counts the snapshot bytes flipped on disk.
	CorruptInjections int
	// UpstreamTimeouts aggregates the deadline failures the sub-farmers
	// saw on their root leg; Refills the sub-ranges they pulled from the
	// root (the first fill of each subtree plus every inter-subtree
	// rebalance); LowWaterRefills the subset adopted while still holding
	// live bindings — the work-conserving pre-fetch of the endgame
	// machinery. All zero without sub-farmers.
	UpstreamTimeouts, Refills, LowWaterRefills int64
	// OverlapUnits is the re-covered leaf measure; ReworkBudget what the
	// fault events justify (summed over the jobs).
	OverlapUnits, ReworkBudget *big.Int
	// Counters are the final (root) farmer counters of the first job.
	Counters farmer.Counters
}

func newReport(name string) Report {
	return Report{Tally: Tally{Name: name}, OverlapUnits: new(big.Int), ReworkBudget: new(big.Int)}
}

// recorder is the event log and driver-level violation list of one run,
// shared by the grid driver and the ring driver. (The conformance trackers
// keep their own violation lists; a report concatenates them.)
type recorder struct {
	trace      []string
	violations []string
}

func (r *recorder) tracef(format string, args ...any) {
	r.trace = append(r.trace, fmt.Sprintf(format, args...))
}

func (r *recorder) violatef(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// outcome is one resolution a run claims to have proven, with its oracle.
// who prefixes the violation messages ("" or "job x: ").
type outcome struct {
	who            string
	factory        func() bb.Problem
	best, baseline bb.Solution
}

// checkIncumbent holds a final incumbent to the sequential baseline: equal
// cost, and — when a path exists — a real leaf of that cost.
func (r *recorder) checkIncumbent(o outcome) {
	switch {
	case o.best.Cost != o.baseline.Cost:
		r.violatef("%sincumbent %d != sequential baseline %d", o.who, o.best.Cost, o.baseline.Cost)
	case !o.best.Valid():
		if o.baseline.Valid() {
			r.violatef("%sbaseline found a solution but the run has none", o.who)
		}
	default:
		if cost, err := evalPath(o.factory(), o.best.Path); err != nil {
			r.violatef("%sincumbent path invalid: %v", o.who, err)
		} else if cost != o.best.Cost {
			r.violatef("%sincumbent path evaluates to %d, claimed %d", o.who, cost, o.best.Cost)
		}
	}
}

// evalPath walks the problem down the rank path and prices the leaf.
func evalPath(p bb.Problem, path []int) (int64, error) {
	depth := p.Shape().Depth()
	if len(path) != depth {
		return 0, fmt.Errorf("path length %d != tree depth %d", len(path), depth)
	}
	p.Reset()
	for d, r := range path {
		if r < 0 || r >= p.Shape().Branching(d) {
			return 0, fmt.Errorf("rank %d out of range at depth %d", r, d)
		}
		p.Descend(r)
	}
	return p.Cost(), nil
}

// slot is one worker seat of the grid.
type slot struct {
	sess     *worker.Session
	id       transport.WorkerID
	gen      int // incarnation count, for unique ids across rejoins
	rejoinAt int // tick to rejoin at; -1 = stay empty
	finished bool
}

// grid is the running state of one scenario: the one chaos driver.
type grid struct {
	recorder
	fleet Fleet
	topo  *topology
	tally *Tally

	rng     *rand.Rand
	tick    int
	nowNano int64

	// fs is the fault seam every store of the topology is opened through;
	// it injects nothing until a DiskFaultEvery sweep arms it.
	fs           *checkpoint.FaultFS
	ckptAttempts int
	slots        []*slot
	crashed      map[transport.WorkerID]bool // lost-report verdicts pending a kill
}

func newGrid(fleet Fleet, tally *Tally) *grid {
	return &grid{
		fleet:   fleet,
		tally:   tally,
		rng:     rand.New(rand.NewSource(fleet.Seed)),
		fs:      checkpoint.NewFaultFS(nil),
		crashed: make(map[transport.WorkerID]bool),
	}
}

// tracef stamps the event with the current tick.
func (g *grid) tracef(format string, args ...any) {
	g.recorder.tracef(fmt.Sprintf("t=%04d ", g.tick)+format, args...)
}

// clock is the virtual clock handed to every coordinator.
func (g *grid) clock() int64 { return g.nowNano }

// leaseTTL is the scenario lease as the coordinators take it.
func (g *grid) leaseTTL() time.Duration {
	return time.Duration(g.fleet.LeaseTTLTicks) * time.Second
}

// intercept puts the seeded chaos layer in front of a coordinator. leg
// names the hop in the trace ("" when the topology has only one); on the
// sub→root leg ("up") a lost solution report is shrugged off — sub-farmers
// only advance bestSentUp on success — so the crash-on-lost-report policy
// applies to worker legs only.
func (g *grid) intercept(inner transport.Coordinator, leg string) *transport.Interceptor {
	return transport.NewInterceptor(inner, transport.Hooks{
		Fault: g.decideFault,
		Observe: func(op transport.Op, w transport.WorkerID, fault transport.Fault, err error) {
			g.observe(leg, op, w, fault)
		},
	})
}

// tempDir returns dir, or a fresh private directory when dir is empty,
// plus its cleanup.
func tempDir(dir string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	d, err := os.MkdirTemp("", "harness-ckpt-*")
	return d, func() { os.RemoveAll(d) }, err
}

// Run executes one scenario to termination and returns its report. The
// error is reserved for harness misuse (unexpected protocol errors bubble
// up as violations, not errors).
func Run(sc Scenario) (Report, error) {
	rep := newReport(sc.Name)
	if err := sc.fillDefaults(); err != nil {
		return rep, err
	}
	dir, cleanup, err := tempDir(sc.Dir)
	if err != nil {
		return rep, err
	}
	defer cleanup()

	g := newGrid(sc.Fleet, &rep.Tally)
	t, err := newTopology(g, &sc, &rep, dir)
	if err != nil {
		return rep, err
	}
	if err := g.loop(t); err != nil {
		return rep, err
	}
	t.settle()
	return rep, t.conclude()
}

// loop is the virtual-time event loop: seat the fleet, then per tick run
// the topology's scheduled coordinator events, the checkpoint sweep, the
// kill/rejoin schedule, one seeded-shuffled pass over the fleet, and the
// topology's post-fleet step, until the topology reports the work done.
func (g *grid) loop(topo *topology) error {
	g.topo = topo
	fl := &g.fleet
	for i := 0; i < fl.Workers; i++ {
		g.slots = append(g.slots, &slot{rejoinAt: -1})
		g.join(i)
	}
	for tick := 0; tick < fl.MaxTicks; tick++ {
		g.tick = tick
		g.nowNano = int64(tick) * int64(time.Second)

		if err := topo.before(tick); err != nil {
			return err
		}
		if fl.CheckpointEvery > 0 && tick > 0 && tick%fl.CheckpointEvery == 0 {
			if err := g.checkpoint(); err != nil {
				return err
			}
		}
		for _, k := range fl.Kills {
			if k.Tick == tick {
				rejoin := -1
				if k.RejoinAfter > 0 {
					rejoin = tick + k.RejoinAfter
				}
				g.kill(k.Slot, rejoin, "scheduled")
			}
		}
		for i, sl := range g.slots {
			if sl.sess == nil && sl.rejoinAt == tick {
				g.join(i)
			}
		}

		for _, si := range g.rng.Perm(len(g.slots)) {
			sl := g.slots[si]
			if sl.sess == nil || sl.finished {
				continue
			}
			budget := fl.TickBudget/2 + g.rng.Int63n(fl.TickBudget)
			n, finished, err := sl.sess.Advance(budget)
			g.tracef("adv w=%s n=%d fin=%v", sl.id, n, finished)
			if err != nil {
				if !errors.Is(err, transport.ErrLost) && !errors.Is(err, transport.ErrDeadline) {
					return fmt.Errorf("harness: worker %s: %w", sl.id, err)
				}
				// A lost or timed-out message is a transient network
				// failure the pull-model protocol retries safely —
				// except a lost solution report, which the protocol
				// never resends: the real worker process dies on the
				// RPC error and the solution's region is re-explored
				// from the last reported fold. Model exactly that.
				if g.crashed[sl.id] {
					delete(g.crashed, sl.id)
					g.kill(si, tick+fl.LeaseTTLTicks+1, "lost-report")
				}
				continue
			}
			if finished {
				sl.finished = true
			}
		}

		topo.tree.Pulse()
		if topo.done() {
			g.tally.Finished = true
			g.tally.Ticks = tick + 1
			return nil
		}
	}
	g.tally.Ticks = fl.MaxTicks
	return nil
}

// join seats a fresh session on the slot, attached to the endpoint the
// topology assigns it (slot i → endpoint i mod n).
func (g *grid) join(i int) {
	sl := g.slots[i]
	sl.gen++
	sl.id = transport.WorkerID(fmt.Sprintf("s%d-g%d", i, sl.gen))
	n := len(g.topo.endpoints)
	sl.sess = g.topo.session(i, sl.id, g.topo.endpoints[i%n])
	sl.rejoinAt = -1
	sl.finished = false
	if sl.gen > 1 {
		g.tally.Rejoins++
	}
	if n > 1 {
		g.tracef("join slot=%d sub=%d w=%s", i, i%n, sl.id)
	} else {
		g.tracef("join slot=%d w=%s", i, sl.id)
	}
}

// kill crashes the slot's session, checking the bounded-rework property on
// the way out: a worker can never die with more unreported nodes than the
// topology's bound of checkpoint periods. A scheduled kill landing on a
// slot already emptied by a chaos crash is traced (so the schedule's
// coverage stays auditable) and its rejoin still honoured if it is the
// earlier one.
func (g *grid) kill(i, rejoinAt int, why string) {
	sl := g.slots[i]
	if sl.sess == nil {
		g.tracef("kill-skipped slot=%d why=%s", i, why)
		if rejoinAt >= 0 && (sl.rejoinAt < 0 || rejoinAt < sl.rejoinAt) {
			sl.rejoinAt = rejoinAt
		}
		return
	}
	unreported := sl.sess.Stats().Explored - sl.sess.Reported().Explored
	if bound := g.topo.unreportedPeriods * g.fleet.UpdatePeriodNodes; unreported > bound {
		g.violatef("worker %s died with %d unreported nodes, more than %d checkpoint period(s) of %d nodes",
			sl.id, unreported, g.topo.unreportedPeriods, g.fleet.UpdatePeriodNodes)
	}
	g.tracef("kill slot=%d w=%s why=%s unreported=%d", i, sl.id, why, unreported)
	delete(g.crashed, sl.id)
	sl.sess = nil
	sl.rejoinAt = rejoinAt
	g.tally.Kills++
}

// checkpoint runs one snapshot sweep over every store of the topology,
// arming the disk-fault seam on every DiskFaultEvery'th one: the injected
// EIO lands on every snapshot fsync of the sweep, so each save aborts
// before any rename touches the generations and the only cost is a wider
// re-exploration window at the next restart — which is exactly what the
// trackers then hold it to, by NOT advancing their generation bookkeeping
// for the failed sweep.
func (g *grid) checkpoint() error {
	g.ckptAttempts++
	faulty := g.fleet.DiskFaultEvery > 0 && g.ckptAttempts%g.fleet.DiskFaultEvery == 0
	if faulty {
		g.fs.SetDecide(func(op checkpoint.Op, path string) checkpoint.Fault {
			if op == checkpoint.OpSync {
				return checkpoint.EIO()
			}
			return checkpoint.Fault{}
		})
		defer g.fs.SetDecide(nil)
	}
	err := g.topo.sweep()
	if faulty {
		if err == nil {
			g.violatef("tick %d: checkpoint sweep survived an injected fsync EIO", g.tick)
		} else if !errors.Is(err, checkpoint.ErrInjected) {
			return err
		}
		g.tally.DiskFaults++
		g.tracef("ckpt-fault n=%d", g.tally.DiskFaults)
		return nil
	}
	if err != nil {
		return err
	}
	g.topo.noteCheckpoint()
	g.tally.Checkpoints++
	g.tracef("ckpt n=%d", g.tally.Checkpoints)
	return nil
}

// decideFault is the seeded chaos policy, shared by every leg: one draw
// per message, in delivery order, so traces reproduce byte for byte.
func (g *grid) decideFault(op transport.Op, w transport.WorkerID) transport.Fault {
	fl := &g.fleet
	total := fl.DropRequestPct + fl.DropReplyPct + fl.DuplicatePct + fl.BlackholePct
	if total == 0 {
		return transport.FaultNone
	}
	r := g.rng.Intn(100)
	switch {
	case r < fl.DropRequestPct:
		return transport.FaultDropRequest
	case r < fl.DropRequestPct+fl.DropReplyPct:
		return transport.FaultDropReply
	case r < fl.DropRequestPct+fl.DropReplyPct+fl.DuplicatePct:
		return transport.FaultDuplicate
	case r < total:
		return transport.FaultBlackhole
	default:
		return transport.FaultNone
	}
}

// observe logs every faulted message and earmarks lost worker solution
// reports for the crash-on-lost-report policy (see loop).
func (g *grid) observe(leg string, op transport.Op, w transport.WorkerID, fault transport.Fault) {
	if fault == transport.FaultNone {
		return
	}
	if leg == "" {
		g.tracef("msg %s w=%s fault=%s", op, w, fault)
	} else {
		g.tracef("msg leg=%s %s w=%s fault=%s", leg, op, w, fault)
	}
	switch fault {
	case transport.FaultDropRequest, transport.FaultDropReply:
		g.tally.Drops++
	case transport.FaultBlackhole:
		// A timed-out call is a loss the deadline had to prove; the
		// protocol consequences are identical to a drop, including the
		// worker dying on a timed-out solution report (the real process
		// restarts on the RPC error).
		g.tally.Timeouts++
	case transport.FaultDuplicate:
		g.tally.Duplicates++
		return
	}
	if leg != legUp && op == transport.OpReportSolution {
		g.crashed[w] = true
	}
}

// conclude writes the run's verdict into the tally: every tracker's
// violations, then the driver's own — among them the optimality check. A
// B&B proof of optimality takes a run that terminated within its tick
// budget and, for every resolution it proved, an incumbent matching the
// sequential oracle.
func (g *grid) conclude(trackers []*tracker, proven ...outcome) {
	if !g.tally.Finished {
		g.violatef("scenario did not terminate within %d ticks", g.fleet.MaxTicks)
	}
	for _, o := range proven {
		g.checkIncumbent(o)
	}
	g.tally.Trace = g.trace
	for _, tr := range trackers {
		g.tally.Violations = append(g.tally.Violations, tr.violations...)
	}
	g.tally.Violations = append(g.tally.Violations, g.violations...)
}
