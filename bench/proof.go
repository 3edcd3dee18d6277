package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/transport"
	"repro/internal/worker"
)

// proofInprocPeriod is proof-inproc's fold cadence: ~700 folds per proof, so
// the farmer is busy about 0.1 % of the time and the engine is all there is.
const proofInprocPeriod = 1 << 16

// proofFactory builds the proof instance's problem constructor: ta056 cut
// to jobs x machines under the one-machine bound.
func proofFactory(jobs, machines int) (func() bb.Problem, error) {
	ins, err := flowshop.Ta056().Reduced(jobs, machines)
	if err != nil {
		return nil, err
	}
	return func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}, nil
}

// proofRig is one proof ready to start: SOLUTION primed with the pinned
// optimum (proof mode: no improving leaf exists, so the explored tree does
// not depend on worker interleaving), problems built and, over TCP, the
// listener up and both connections negotiated.
type proofRig struct {
	f       *farmer.Farmer
	coords  []transport.Coordinator
	factory func() bb.Problem
	tr      *tracer
	teardown
}

// newProofRig sets a proof up. tr, when non-nil, puts the span decorators
// on both sides of every call; viaProxy routes the TCP connections through
// a counting proxy, which is returned.
func newProofRig(sc scale, tcp bool, tr *tracer, viaProxy bool) (*proofRig, *countingProxy, error) {
	factory, err := proofFactory(sc.proofJobs, sc.proofMachines)
	if err != nil {
		return nil, nil, err
	}
	r := &proofRig{tr: tr, factory: factory}
	root := core.NewNumbering(factory().Shape()).RootRange()
	r.f = farmer.New(root, farmer.WithInitialBest(sc.proofUpper, nil))
	var proxy *countingProxy
	if r.coords, proxy, err = connect(r.f, root, tcp, viaProxy, tr, &r.teardown); err != nil {
		r.close()
		return nil, nil, err
	}
	return r, proxy, nil
}

// proofOutcome is what one proof did.
type proofOutcome struct {
	explored int64
	calls    int64 // protocol calls the workers made
	busy     time.Duration
}

// run drives both workers to the end of the proof (or of ctx).
func (r *proofRig) run(ctx context.Context, period int64) (proofOutcome, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  proofOutcome
		errs []error
	)
	for w := range r.coords {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker builds its own problem on its own goroutine, as
			// a worker process would: two problems allocated back to back
			// by one goroutine share cache lines, and the false sharing
			// between the two hot loops costs 40-90 % of the proof.
			prob := r.factory()
			var res worker.Result
			var err error
			r.tr.during(spanEngine, workerID(w), func() {
				res, err = worker.Run(ctx, worker.Config{
					ID: transport.WorkerID(workerID(w)), Power: 1, UpdatePeriodNodes: period,
				}, r.coords[w], prob)
			})
			mu.Lock()
			defer mu.Unlock()
			out.explored += res.Stats.Explored
			out.calls += res.Requests + res.Updates + res.Reports
			if err != nil {
				errs = append(errs, err)
			}
		}(w)
	}
	wg.Wait()
	out.busy = time.Duration(r.f.BusyNanos())
	return out, errors.Join(errs...)
}

// verify is the proof's correctness gate: the pinned optimum proven, the
// whole tree drained, and at least the sequential node count explored (a
// bound that prunes too much would finish early with the same cost).
func (r *proofRig) verify(e *env, out proofOutcome) {
	e.rep.check(r.f.Best().Cost == e.sc.proofUpper, "proved cost %d, pinned optimum %d", r.f.Best().Cost, e.sc.proofUpper)
	e.rep.check(r.f.Done(), "farmer still tracks intervals after the proof")
	e.rep.check(out.explored >= e.sc.proofSeqNodes, "explored %d nodes, sequential proof needs %d", out.explored, e.sc.proofSeqNodes)
}

func runProof(tcp bool) func(e *env) error {
	return func(e *env) error {
		period := int64(proofInprocPeriod)
		name := "proof-inproc"
		if tcp {
			period, name = e.sc.chattyPeriod, "proof-tcp-chatty"
		}
		build := func(tr *tracer) (*proofRig, error) {
			rig, _, err := newProofRig(e.sc, tcp, tr, false)
			return rig, err
		}
		if err := e.rehearse(func() (func(), error) {
			rig, err := build(nil)
			if err != nil {
				return nil, err
			}
			return rig.close, nil
		}); err != nil {
			return err
		}
		// prove runs one verified proof as a unit.
		prove := func(tr *tracer) (unit, proofOutcome, error) {
			rig, err := build(tr)
			if err != nil {
				return unit{}, proofOutcome{}, err
			}
			defer rig.close()
			var out proofOutcome
			u, err := timed(func() (float64, error) {
				var err error
				out, err = rig.run(context.Background(), period)
				return float64(out.explored), err
			})
			if err == nil {
				rig.verify(e, out)
			}
			return u, out, err
		}
		if !e.trace {
			us, err := repeatFor(e.window(), 0, func(int) (unit, error) {
				u, _, err := prove(nil)
				return u, err
			})
			e.setEndToEnd(us)
			return err
		}

		// Traced pass: the sequential baseline, one untraced proof for the
		// reference wall-clock and the farmer's own counters, one traced.
		factory, err := proofFactory(e.sc.proofJobs, e.sc.proofMachines)
		if err != nil {
			return err
		}
		t0 := time.Now()
		sol, stats := bb.Solve(factory(), e.sc.proofUpper)
		seqRate := float64(stats.Explored) / time.Since(t0).Seconds()
		e.rep.check(!sol.Valid() && stats.Explored == e.sc.proofSeqNodes,
			"sequential proof explored %d nodes (improved: %v), pinned %d", stats.Explored, sol.Valid(), e.sc.proofSeqNodes)
		e.rep.set("bb.seq_nodes", float64(stats.Explored))
		e.rep.set("bb.seq_nodes_per_s", seqRate)

		ref, out, err := prove(nil)
		if err != nil {
			return err
		}
		e.rep.set("parallel_efficiency", float64(out.explored)/ref.wall.Seconds()/(loadWorkers*seqRate))
		e.rep.set("farmer_busy_pct", 100*out.busy.Seconds()/ref.wall.Seconds())
		e.rep.set("redundancy_pct", 100*float64(out.explored-e.sc.proofSeqNodes)/float64(e.sc.proofSeqNodes))

		tr := newTracer()
		traced, _, err := prove(tr)
		if err != nil {
			return err
		}
		tr.layerMetrics(e.rep)
		e.rep.set("trace_overhead_pct", 100*(traced.wall.Seconds()/ref.wall.Seconds()-1))

		if tcp {
			if err := proofWireProbe(e, period); err != nil {
				return err
			}
		}
		runProbes(e)
		return tr.write(e.outDir, name, e.seed)
	}
}

// proofWireProbe prices the chatty proof's wire: the same workers through a
// counting proxy for half a second, bytes both ways over calls made.
func proofWireProbe(e *env, period int64) error {
	rig, proxy, err := newProofRig(e.sc, true, nil, true)
	if err != nil {
		return err
	}
	defer rig.close()
	before := proxy.Total()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	out, err := rig.run(ctx, period)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if out.calls > 0 {
		e.rep.set("wire_bytes_per_op", float64(proxy.Total()-before)/float64(out.calls))
	}
	return nil
}
