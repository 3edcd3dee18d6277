// Package worker implements the B&B process of the paper's architecture
// (§4): it hosts one interval-driven explorer (internal/core), speaks the
// pull-model protocol of internal/transport, checkpoints its interval by
// periodically re-registering its fold with the coordinator (§4.1), pushes
// improving solutions immediately and pulls the global best regularly
// (§4.4), and requests a new interval when it joins and whenever it
// finishes one (§4.2).
//
// The protocol logic lives in Session, a step-driven state machine: the
// goroutine runtime (Run) and the discrete-event grid simulator
// (internal/gridsim) drive the same code, so simulated statistics are
// produced by the real protocol, not a model of it.
package worker

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/transport"
)

// Config parameterizes a worker.
type Config struct {
	// ID identifies this process to the coordinator.
	ID transport.WorkerID
	// Power is the self-estimated exploration speed (nodes/second) the
	// partitioning operator splits with (§4.2).
	Power int64
	// AutoPower makes Run measure the real exploration rate and refresh
	// the reported power every few seconds, so heterogeneous hosts are
	// split proportionally without manual calibration ("the choice of
	// the partitioning point C depends on the power and the availability
	// of the processors", §4.2). The initial Power is used until the
	// first measurement.
	AutoPower bool
	// UpdatePeriodNodes is how many nodes to explore between two
	// coordinator updates — the worker-side checkpoint period. The
	// paper's workers performed ~2M checkpoints over 6.5e12 nodes
	// (every few million nodes). Default 1<<16.
	UpdatePeriodNodes int64
	// StepSize is the engine slice used by Run between context checks.
	// Default 1<<12.
	StepSize int64
	// Cores is how many shard explorers this worker runs over a tiling of
	// its assigned interval (the intra-worker multicore engine; see
	// DESIGN.md §7). It only takes effect through the entry points that
	// can supply one Problem instance per shard: NewShardedSession (the
	// deterministic, step-driven form used by the simulator and the chaos
	// harness) and RunParallel (the goroutine runtime used on real
	// multicore hosts, where zero means runtime.GOMAXPROCS). Zero or one
	// keeps the paper's single-explorer worker.
	Cores int
}

func (c *Config) fillDefaults() {
	if c.UpdatePeriodNodes <= 0 {
		c.UpdatePeriodNodes = 1 << 16
	}
	if c.StepSize <= 0 {
		c.StepSize = 1 << 12
	}
	if c.Power <= 0 {
		c.Power = 1
	}
}

// engine abstracts the exploration side of a session: the paper's single
// interval-driven Explorer or the multicore shard engine that presents the
// same fold/restrict surface over a tiling of the interval. Everything the
// protocol state machine needs is here; *core.Explorer satisfies it as-is.
type engine interface {
	Step(budget int64) (explored int64, done bool)
	Remaining() interval.Interval
	Restrict(iv interval.Interval)
	Reassign(iv interval.Interval)
	AdoptBest(cost int64)
	Best() bb.Solution
	Stats() bb.Stats
	Done() bool
}

// Session is the worker's protocol state machine. Drive it with Advance.
// Not safe for concurrent use.
type Session struct {
	cfg   Config
	coord transport.Coordinator
	nb    *core.Numbering
	ex    engine

	// newEngine builds the exploration engine on the first assignment;
	// it decides single-explorer vs sharded and wires the improvement
	// hook back into pushSolution.
	newEngine func(iv interval.Interval, bestCost int64) engine

	// intervalID and job name the held interval to the coordinator: job is
	// its WorkReply.Job tag, echoed on every fold and report so a
	// multi-tenant coordinator routes them to the table the interval came
	// from. Empty against a single-job coordinator.
	intervalID  int64
	job         string
	haveWork    bool
	finished    bool
	sinceUpdate int64
	reported    bb.Stats // stats already shipped to the coordinator
	pushErr     error

	// Messages counts protocol calls by kind, for tests and statistics.
	Messages struct {
		Requests, Updates, Reports int64
	}
}

// NewSession builds a session over a problem and a coordinator connection.
// The session hosts the paper's single interval-driven explorer; Cores is
// ignored here because one Problem instance can only back one shard — use
// NewShardedSession with a factory for the multicore engine.
func NewSession(cfg Config, coord transport.Coordinator, prob bb.Problem) *Session {
	cfg.fillDefaults()
	s := &Session{cfg: cfg, coord: coord, nb: core.NewNumbering(prob.Shape())}
	s.newEngine = func(iv interval.Interval, bestCost int64) engine {
		e := core.NewExplorer(prob, s.nb, iv, bestCost)
		e.OnImprove = s.pushSolution
		return e
	}
	return s
}

// NewShardedSession builds a session whose exploration engine runs
// cfg.Cores shard explorers over a tiling of the assigned interval, each on
// its own Problem instance from factory. The engine is stepped
// deterministically inside Advance (round-robin shards, richest-victim
// halving steals), so the session stays a single-threaded state machine:
// the grid simulator and the chaos harness drive multicore workers with
// byte-identical traces, while the farmer still sees the paper's exact
// single-worker protocol — one fold, one power, one checkpoint. Cores <= 1
// degenerates to the classic single-explorer session.
func NewShardedSession(cfg Config, coord transport.Coordinator, factory func() bb.Problem) *Session {
	if cfg.Cores <= 1 {
		return NewSession(cfg, coord, factory())
	}
	cfg.fillDefaults()
	probe := factory()
	s := &Session{cfg: cfg, coord: coord, nb: core.NewNumbering(probe.Shape())}
	fac := reuseFirst(probe, factory)
	s.newEngine = func(iv interval.Interval, bestCost int64) engine {
		g := newShardEngine(fac, s.nb, cfg.Cores, cfg.StepSize, iv, bestCost)
		g.onImprove = s.pushSolution
		return g
	}
	return s
}

// reuseFirst wraps factory so the instance already built to read Shape()
// backs the first shard instead of being discarded (Problem construction
// is not free — flowshop builds job matrices and Johnson pair orders).
func reuseFirst(probe bb.Problem, factory func() bb.Problem) func() bb.Problem {
	return func() bb.Problem {
		if p := probe; p != nil {
			probe = nil
			return p
		}
		return factory()
	}
}

// SetPower refreshes the exploration-speed estimate reported to the
// coordinator on subsequent messages.
func (s *Session) SetPower(p int64) {
	if p > 0 {
		s.cfg.Power = p
	}
}

// Power returns the currently reported exploration speed.
func (s *Session) Power() int64 { return s.cfg.Power }

// Finished reports whether the coordinator declared the resolution over.
func (s *Session) Finished() bool { return s.finished }

// HasWork reports whether the session currently holds an interval.
func (s *Session) HasWork() bool { return s.haveWork }

// Stats returns the cumulative exploration counters of the local engine.
func (s *Session) Stats() bb.Stats {
	if s.ex == nil {
		return bb.Stats{}
	}
	return s.ex.Stats()
}

// Best returns the local best solution (which, thanks to sharing, tracks
// the global best cost).
func (s *Session) Best() bb.Solution {
	if s.ex == nil {
		return bb.Solution{Cost: bb.Infinity}
	}
	return s.ex.Best()
}

// Advance explores up to budget nodes, interleaving protocol exchanges as
// they come due. It returns the number of nodes actually explored and
// whether the whole resolution is finished. A (0, false, nil) return means
// the coordinator asked the worker to wait.
func (s *Session) Advance(budget int64) (explored int64, finished bool, err error) {
	if budget <= 0 && !s.haveWork && !s.finished {
		// A zero-budget call still acquires work, so a slow host (in a
		// simulator tick too short to finish a node) asks for its
		// interval immediately instead of idling until it has banked
		// a full node of credit.
		_, err := s.requestWork()
		return 0, s.finished, err
	}
	for explored < budget && !s.finished {
		if !s.haveWork {
			ok, err := s.requestWork()
			if err != nil {
				return explored, s.finished, err
			}
			if !ok {
				return explored, s.finished, nil // wait
			}
			continue
		}
		slice := budget - explored
		if due := s.cfg.UpdatePeriodNodes - s.sinceUpdate; due < slice {
			slice = due
		}
		n, done := s.ex.Step(slice)
		explored += n
		s.sinceUpdate += n
		if s.pushErr != nil {
			err := s.pushErr
			s.pushErr = nil
			return explored, s.finished, err
		}
		if done || s.sinceUpdate >= s.cfg.UpdatePeriodNodes {
			if err := s.update(); err != nil {
				return explored, s.finished, err
			}
		}
	}
	return explored, s.finished, nil
}

// requestWork asks the coordinator for an interval. It returns false with a
// nil error when told to wait.
func (s *Session) requestWork() (bool, error) {
	s.Messages.Requests++
	reply, err := s.coord.RequestWork(transport.WorkRequest{Worker: s.cfg.ID, Power: s.cfg.Power})
	if err != nil {
		return false, fmt.Errorf("worker %s: request work: %w", s.cfg.ID, err)
	}
	switch reply.Status {
	case transport.WorkFinished:
		s.finished = true
		return false, nil
	case transport.WorkWait:
		return false, nil
	case transport.WorkAssigned:
		if s.ex == nil {
			s.ex = s.newEngine(reply.Interval, reply.BestCost)
		} else {
			s.ex.Reassign(reply.Interval)
			s.ex.AdoptBest(reply.BestCost)
		}
		s.intervalID, s.job = reply.IntervalID, reply.Job
		s.haveWork = true
		s.sinceUpdate = 0
		return true, nil
	default:
		return false, fmt.Errorf("worker %s: unknown work status %v", s.cfg.ID, reply.Status)
	}
}

// pushSolution implements rule 2 of solution sharing: improvements go to
// the coordinator immediately. It runs inside Explorer.Step; errors are
// stashed and surfaced by Advance.
func (s *Session) pushSolution(sol bb.Solution) {
	s.Messages.Reports++
	ack, err := s.coord.ReportSolution(transport.SolutionReport{
		Worker: s.cfg.ID, Cost: sol.Cost, Path: sol.Path, Job: s.job,
	})
	if err != nil {
		s.pushErr = fmt.Errorf("worker %s: report solution: %w", s.cfg.ID, err)
		return
	}
	s.ex.AdoptBest(ack.BestCost)
}

// update re-registers the folded remaining interval (the worker checkpoint
// of §4.1), ships statistics deltas, applies the intersected copy and the
// shared best, and releases the interval when it is finished or was
// retired by the coordinator.
func (s *Session) update() error {
	stats := s.ex.Stats()
	req := transport.UpdateRequest{
		Worker:        s.cfg.ID,
		IntervalID:    s.intervalID,
		Remaining:     s.ex.Remaining(),
		Power:         s.cfg.Power,
		ExploredDelta: stats.Explored - s.reported.Explored,
		PrunedDelta:   stats.Pruned - s.reported.Pruned,
		LeavesDelta:   stats.Leaves - s.reported.Leaves,
		Job:           s.job,
	}
	s.Messages.Updates++
	reply, err := s.coord.UpdateInterval(req)
	if err != nil {
		return fmt.Errorf("worker %s: update interval: %w", s.cfg.ID, err)
	}
	s.reported = stats
	s.sinceUpdate = 0
	if !reply.Known {
		// Interval completed elsewhere or reassigned after this worker
		// was presumed dead: drop it.
		s.ex.Reassign(interval.Interval{})
		s.haveWork = false
		s.finished = reply.Finished
		return nil
	}
	s.ex.Restrict(reply.Interval)
	s.ex.AdoptBest(reply.BestCost)
	if s.ex.Done() {
		s.haveWork = false
	}
	s.finished = reply.Finished
	return nil
}

// Reported returns the cumulative statistics already shipped to the
// coordinator. The difference with Stats is the work that would be redone
// if this worker crashed right now — the raw material of the paper's
// redundant-node rate.
func (s *Session) Reported() bb.Stats { return s.reported }

// Checkpoint forces an immediate interval update if the session holds work:
// the graceful-leave path of a cycle-stealing host (the owner reclaims the
// machine, the B&B process checkpoints and dies; nothing is lost). It is a
// no-op without work.
func (s *Session) Checkpoint() error {
	if !s.haveWork || s.finished {
		return nil
	}
	return s.update()
}

// Result summarizes a worker's run.
type Result struct {
	// Best is the worker's local best solution.
	Best bb.Solution
	// Stats are the cumulative engine counters.
	Stats bb.Stats
	// Messages counts protocol calls.
	Requests, Updates, Reports int64
}

// Run drives a session until the resolution finishes or the context is
// cancelled. Wait replies back off with a short sleep (the cycle-stealing
// worker keeps polling; remember the farmer never calls back).
func Run(ctx context.Context, cfg Config, coord transport.Coordinator, prob bb.Problem) (Result, error) {
	cfg.fillDefaults()
	s := NewSession(cfg, coord, prob)
	backoff := 10 * time.Millisecond
	calStart := time.Now()
	var calNodes int64
	for {
		select {
		case <-ctx.Done():
			return s.result(), ctx.Err()
		default:
		}
		n, finished, err := s.Advance(cfg.StepSize)
		if err != nil {
			return s.result(), err
		}
		if finished {
			return s.result(), nil
		}
		if cfg.AutoPower {
			calNodes += n
			if elapsed := time.Since(calStart); elapsed >= 2*time.Second {
				s.SetPower(calNodes * int64(time.Second) / int64(elapsed))
				calStart, calNodes = time.Now(), 0
			}
		}
		if n == 0 && !s.haveWork {
			// Told to wait.
			select {
			case <-ctx.Done():
				return s.result(), ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < time.Second {
				backoff *= 2
			}
		} else {
			backoff = 10 * time.Millisecond
		}
	}
}

func (s *Session) result() Result {
	return Result{
		Best:     s.Best(),
		Stats:    s.Stats(),
		Requests: s.Messages.Requests,
		Updates:  s.Messages.Updates,
		Reports:  s.Messages.Reports,
	}
}
