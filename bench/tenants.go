package main

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/interval"
	"repro/internal/jobs"
	"repro/internal/transport"
)

// tenantsMaxActive is the job table's running-slot count: with eight jobs
// submitted, four start and four wait in the admission queue.
const tenantsMaxActive = 4

// pinTenants fills in optimum and seqNodes for specs that carry none (the
// smoke scale: small enough to solve on the spot). The full scale is pinned
// in workloads.go and only re-verified by the traced pass.
func pinTenants(ts []tenant) ([]tenant, error) {
	out := append([]tenant(nil), ts...)
	for i, t := range out {
		if t.seqNodes != 0 {
			continue
		}
		factory, err := t.spec.Factory()
		if err != nil {
			return nil, err
		}
		sol, _ := bb.Solve(factory(), bb.Infinity)
		_, stats := bb.Solve(factory(), sol.Cost)
		out[i].optimum, out[i].seqNodes = sol.Cost, stats.Explored
	}
	return out, nil
}

// tenantsRig is a job table with every job submitted, primed with its
// pinned optimum, and the worker sessions that will drain it.
type tenantsRig struct {
	tb       *jobs.Table
	sessions []*jobs.WorkerSession
	tr       *tracer
}

func newTenantsRig(ts []tenant, tr *tracer) (*tenantsRig, error) {
	r := &tenantsRig{tr: tr, tb: jobs.NewTable(jobs.Config{MaxActive: tenantsMaxActive, LeaseTTL: time.Hour})}
	specs := make(map[string]jobs.Spec, len(ts))
	for _, t := range ts {
		spec := t.spec
		spec.InitialUpper = t.optimum
		specs[t.id] = spec
		if err := r.tb.Submit(t.id, spec); err != nil {
			return nil, err
		}
	}
	// In-process, so nothing to tear down.
	coords, _, err := connect(r.tb, interval.Interval{}, false, false, tr, new(teardown))
	if err != nil {
		return nil, err
	}
	for w, coord := range coords {
		r.sessions = append(r.sessions, jobs.NewWorkerSession(
			jobs.WorkerConfig{ID: transport.WorkerID(workerID(w)), Power: 1}, coord, jobs.SpecFactories(specs)))
	}
	return r, nil
}

// drain runs every session until the table answers WorkFinished.
func (r *tenantsRig) drain() error {
	errs := make([]error, len(r.sessions))
	var wg sync.WaitGroup
	for w, s := range r.sessions {
		wg.Add(1)
		go func(w int, s *jobs.WorkerSession) {
			defer wg.Done()
			r.tr.during(spanEngine, workerID(w), func() {
				for {
					n, finished, err := s.Advance(1 << 16)
					if err != nil || finished {
						errs[w] = err
						return
					}
					if n == 0 && !s.HasWork() {
						time.Sleep(time.Millisecond) // told to wait: a slot is being promoted
					}
				}
			})
		}(w, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verify checks every job ended done on its pinned optimum having explored
// at least its sequential node count, and returns the explored total.
func (r *tenantsRig) verify(e *env, ts []tenant) (explored, seq int64) {
	e.rep.check(r.tb.Done(), "job table still has running or queued jobs")
	for _, t := range ts {
		p, err := r.tb.Progress(t.id)
		if err != nil {
			e.rep.check(false, "job %s: %v", t.id, err)
			continue
		}
		e.rep.check(p.State == jobs.Done.String() && p.BestCost == t.optimum,
			"job %s ended %s with cost %d, pinned optimum %d", t.id, p.State, p.BestCost, t.optimum)
		// The workers' own engine counters: a fold that reaches a job
		// after it finished is answered without being tallied, so the
		// farmer's counter can run short of what was really explored.
		var n int64
		for _, s := range r.sessions {
			n += s.JobStats(t.id).Explored
		}
		e.rep.check(n >= t.seqNodes, "job %s explored %d nodes, its sequential proof needs %d", t.id, n, t.seqNodes)
		explored += n
		seq += t.seqNodes
	}
	return explored, seq
}

func runTenants(e *env) error {
	ts, err := pinTenants(e.sc.tenants)
	if err != nil {
		return err
	}
	build := func(tr *tracer) (*tenantsRig, error) { return newTenantsRig(ts, tr) }
	if err := e.rehearse(func() (func(), error) {
		_, err := build(nil)
		return func() {}, err
	}); err != nil {
		return err
	}
	// batch drains one freshly submitted table as a unit.
	batch := func(tr *tracer) (unit, *tenantsRig, float64, error) {
		rig, err := build(tr)
		if err != nil {
			return unit{}, nil, 0, err
		}
		u, err := timed(func() (float64, error) { return 0, rig.drain() })
		if err != nil {
			return u, rig, 0, err
		}
		explored, seq := rig.verify(e, ts)
		u.ops = float64(explored)
		return u, rig, 100 * float64(explored-seq) / float64(seq), nil
	}
	if !e.trace {
		us, err := repeatFor(e.window(), 0, func(int) (unit, error) {
			u, _, _, err := batch(nil)
			return u, err
		})
		e.setEndToEnd(us)
		return err
	}

	// Traced pass. First hold the pinned answers against bb.Solve: primed
	// one above the optimum it must land exactly on it.
	if e.sc.tenants[0].seqNodes != 0 {
		for _, t := range ts {
			factory, err := t.spec.Factory()
			if err != nil {
				return err
			}
			sol, _ := bb.Solve(factory(), t.optimum+1)
			e.rep.check(sol.Cost == t.optimum, "job %s: bb.Solve finds %d, pinned optimum %d", t.id, sol.Cost, t.optimum)
		}
	}
	ref, _, redundancy, err := batch(nil)
	if err != nil {
		return err
	}
	e.rep.set("redundancy_pct", redundancy)

	tr := newTracer()
	traced, rig, _, err := batch(tr)
	if err != nil {
		return err
	}
	tr.layerMetrics(e.rep)
	e.rep.set("trace_overhead_pct", 100*(traced.wall.Seconds()/ref.wall.Seconds()-1))
	e.rep.set("jobs.fair_share_assignments", float64(rig.tb.Counters().FairShareAssignments))
	e.rep.set("jobs.weight3_share", weightedShare(tr, ts))

	runProbes(e)
	return tr.write(e.outDir, "tenants-batch", e.seed)
}

// weightedShare is the weighted job's share of the nodes reported while all
// running slots were busy: from the start until the queue has emptied and
// one more job has finished, which is the (jobs - slots + 1)-th completion.
// A job's last fold stands for its completion.
func weightedShare(tr *tracer, ts []tenant) float64 {
	last := make(map[string]int64)
	for _, f := range tr.folds {
		last[f.job] = max(last[f.job], f.at)
	}
	ends := make([]int64, 0, len(last))
	for _, at := range last {
		ends = append(ends, at)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	k := len(ts) - tenantsMaxActive
	if k < 0 || k >= len(ends) {
		return 0
	}
	heavy := ""
	for _, t := range ts {
		if t.spec.Weight > 1 {
			heavy = t.id
		}
	}
	var mine, all int64
	for _, f := range tr.folds {
		if f.at > ends[k] {
			continue
		}
		all += f.explored
		if f.job == heavy {
			mine += f.explored
		}
	}
	if all == 0 {
		return 0
	}
	return float64(mine) / float64(all)
}
