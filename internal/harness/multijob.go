// Multi-job chaos scenarios: the conformance harness for the multi-tenant
// job table (internal/jobs). One fleet of multi-job workers shares one
// table holding several concurrent resolutions while the chaos layer
// kills workers and drops replies and the operator cancels a job mid-run.
// It is the same grid driver as every other scenario, under a topology
// whose endpoint is a jobs.Table.
//
// Conformance is per job: every job gets its own tracker (the same
// interval-algebra auditor the single-job scenarios use), attached via
// the table's Wrap hook so it sees exactly the messages routed to its
// job. A leak — an interval of job A's tree granted under job B's tag —
// would surface twice: once in the assignment-containment check here, and
// once as a partition violation inside the wronged job's tracker.
package harness

import (
	"fmt"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/jobs"
	"repro/internal/transport"
	"repro/internal/worker"
)

// MultiJob is one tenant of a multi-job scenario.
type MultiJob struct {
	// ID keys the job (and its checkpoint namespace).
	ID string
	// Spec describes the instance; its Weight is the fair-share weight.
	Spec jobs.Spec
	// CancelAt cancels the job at this tick (0: run to completion).
	CancelAt int
}

// MultiJobScenario drives one fleet over one table of concurrent jobs.
type MultiJobScenario struct {
	Name string
	Fleet
	Jobs []MultiJob
	// MaxActive bounds concurrently running jobs (0: all of them).
	MaxActive int
}

func (sc *MultiJobScenario) fillDefaults() {
	sc.Fleet.fillDefaults()
	if sc.MaxActive <= 0 {
		sc.MaxActive = len(sc.Jobs)
	}
}

// JobOutcome is one job's verdict in a MultiJobReport.
type JobOutcome struct {
	ID       string
	State    string
	Best     bb.Solution
	Baseline bb.Solution
	// Explored is the job's farmer-accounted node total.
	Explored int64
}

// MultiJobReport is the outcome of a multi-job scenario.
type MultiJobReport struct {
	Tally
	Jobs  []JobOutcome
	Table jobs.Counters
}

// jobTable is the multi-tenant topology: one jobs.Table behind the leak
// check, one conformance tracker per job hung on the table's Wrap hook.
type jobTable struct {
	g         *grid
	sc        *MultiJobScenario
	table     *jobs.Table
	factories map[string]func() bb.Problem
	roots     map[string]interval.Interval
	tracks    map[string]*tracker
}

// RequestWork sits between the chaos layer and the table: every assignment
// must name a known job and stay inside that job's root range — the
// cross-job isolation property, checked on the wire where a worker would
// see the breach. (Each job's tracker would also catch a leak, as a
// partition violation; this check names the culprit directly.)
func (t *jobTable) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	rep, err := t.table.RequestWork(req)
	if err == nil && rep.Status == transport.WorkAssigned {
		root, ok := t.roots[rep.Job]
		switch {
		case !ok:
			t.g.violatef("assignment to %s names unknown job %q", req.Worker, rep.Job)
		case !root.ContainsInterval(rep.Interval):
			t.g.violatef("cross-job leak: job %s assigned %s outside its root %s",
				rep.Job, rep.Interval.String(), root.String())
		}
	}
	return rep, err
}

func (t *jobTable) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	return t.table.UpdateInterval(req)
}

func (t *jobTable) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	return t.table.ReportSolution(req)
}

func (t *jobTable) topology() topology {
	return topology{
		endpoints:         []transport.Coordinator{t.g.intercept(t, "")},
		session:           t.session,
		before:            t.cancelJobs,
		sweep:             t.table.Checkpoint,
		noteCheckpoint:    t.noteCheckpoint,
		done:              t.done,
		unreportedPeriods: 2,
	}
}

// session starts a multi-job worker, heterogeneous by construction.
func (t *jobTable) session(i int, id transport.WorkerID, coord transport.Coordinator) *worker.Session {
	return worker.NewMultiJobSession(worker.Config{
		ID:                id,
		Power:             1 + int64(i),
		UpdatePeriodNodes: t.sc.UpdatePeriodNodes,
	}, coord, func(jobID string) (func() bb.Problem, bool) {
		f, ok := t.factories[jobID]
		return f, ok
	})
}

// cancelJobs is the operator pulling jobs mid-run.
func (t *jobTable) cancelJobs(tick int) error {
	for _, mj := range t.sc.Jobs {
		if mj.CancelAt > 0 && mj.CancelAt == tick {
			if err := t.table.Cancel(mj.ID); err != nil {
				t.g.tracef("cancel job=%s err=%v", mj.ID, err)
			} else {
				t.g.tracef("cancel job=%s", mj.ID)
			}
		}
	}
	return nil
}

// noteCheckpoint: a table sweep saves exactly the running jobs.
func (t *jobTable) noteCheckpoint() {
	for _, p := range t.table.List() {
		if p.State == "running" {
			t.tracks[p.ID].noteCheckpoint()
		}
	}
}

func (t *jobTable) done() bool {
	if !t.table.Done() {
		return false
	}
	t.g.tracef("done")
	return true
}

// RunMultiJob executes a multi-job scenario to termination and audits it.
func RunMultiJob(sc MultiJobScenario) (MultiJobReport, error) {
	sc.fillDefaults()
	rep := MultiJobReport{Tally: Tally{Name: sc.Name}}
	dir, cleanup, err := tempDir("")
	if err != nil {
		return rep, err
	}
	defer cleanup()

	g := newGrid(sc.Fleet, &rep.Tally)
	store, err := checkpoint.NewStoreFS(g.fs, dir)
	if err != nil {
		return rep, err
	}
	t := &jobTable{
		g:         g,
		sc:        &sc,
		factories: make(map[string]func() bb.Problem),
		roots:     make(map[string]interval.Interval),
		tracks:    make(map[string]*tracker),
	}
	t.table = jobs.NewTable(jobs.Config{
		MaxActive: sc.MaxActive,
		Store:     store,
		Clock:     g.clock,
		LeaseTTL:  g.leaseTTL(),
		Wrap: func(id string, f *farmer.Farmer) transport.Coordinator {
			tr := newTracker(t.roots[id])
			tr.attach(f)
			t.tracks[id] = tr
			return tr
		},
	})

	// Baselines first (the sequential oracle per job), and the root map —
	// the Wrap hook fires inside Submit and needs the roots populated.
	baselines := make(map[string]bb.Solution, len(sc.Jobs))
	for _, mj := range sc.Jobs {
		factory, err := mj.Spec.Factory()
		if err != nil {
			return rep, err
		}
		t.factories[mj.ID] = factory
		t.roots[mj.ID] = core.NewNumbering(factory().Shape()).RootRange()
		baselines[mj.ID], _ = bb.Solve(factory(), bb.Infinity)
	}
	for _, mj := range sc.Jobs {
		if err := t.table.Submit(mj.ID, mj.Spec); err != nil {
			return rep, err
		}
	}

	if err := g.loop(t.topology()); err != nil {
		return rep, err
	}

	// Per-job verdicts: a surviving job must be done and proven; a
	// cancelled job proves nothing — its only obligations are the tracker
	// laws while it ran.
	var trackers []*tracker
	var proven []outcome
	for _, mj := range sc.Jobs {
		p, err := t.table.Progress(mj.ID)
		if err != nil {
			return rep, err
		}
		out := JobOutcome{
			ID:       mj.ID,
			State:    p.State,
			Best:     bb.Solution{Cost: p.BestCost, Path: p.BestPath},
			Baseline: baselines[mj.ID],
			Explored: p.Counters.ExploredNodes,
		}
		rep.Jobs = append(rep.Jobs, out)
		if tr, ok := t.tracks[mj.ID]; ok {
			trackers = append(trackers, tr)
		}
		want := "done"
		if mj.CancelAt > 0 {
			want = "cancelled"
		}
		if p.State != want {
			g.violatef("job %s: state %s, want %s", mj.ID, p.State, want)
		} else if want == "done" {
			t.tracks[mj.ID].noteTermination()
			proven = append(proven, outcome{
				who:     fmt.Sprintf("job %s: ", mj.ID),
				factory: t.factories[mj.ID], best: out.Best, baseline: out.Baseline,
			})
		}
	}
	g.conclude(trackers, proven...)
	rep.Table = t.table.Counters()
	return rep, nil
}

// MultiJobChurn is the canonical multi-tenant chaos story: three jobs of
// three different domains (flowshop ~8k sequential nodes, TSP ~6k, QAP
// ~3k) share one five-worker fleet while workers die and rejoin, replies
// drop, every second checkpoint sweep hits an fsync EIO, and the operator
// cancels the QAP job mid-run. The two surviving jobs must prove their
// sequential optima with zero cross-job leakage; the flowshop job carries
// double fair-share weight.
func MultiJobChurn() MultiJobScenario {
	return MultiJobScenario{
		Name: "multi-job-churn",
		Jobs: []MultiJob{
			{ID: "fs10x5", Spec: jobs.Spec{Domain: "flowshop", Jobs: 10, Machines: 5, Seed: 2, Weight: 2}},
			{ID: "tsp9", Spec: jobs.Spec{Domain: "tsp", N: 9, Seed: 1}},
			{ID: "qap7", Spec: jobs.Spec{Domain: "qap", N: 7, Seed: 2}, CancelAt: 6},
		},
		Fleet: Fleet{
			Seed:              17,
			Workers:           5,
			UpdatePeriodNodes: 256,
			TickBudget:        256,
			LeaseTTLTicks:     3,
			CheckpointEvery:   3,
			DiskFaultEvery:    2,
			DropReplyPct:      6,
			Kills: []KillEvent{
				{Tick: 4, Slot: 1, RejoinAfter: 3},
				{Tick: 8, Slot: 3, RejoinAfter: 4},
			},
		},
	}
}
