// Package worker implements the B&B process of the paper's architecture
// (§4): it hosts an interval-driven exploration engine (internal/core),
// speaks the pull-model protocol of internal/transport, checkpoints its
// interval by periodically re-registering its fold with the coordinator
// (§4.1), pushes improving solutions immediately and pulls the global best
// regularly (§4.4), and requests a new interval when it joins and whenever
// it finishes one (§4.2).
//
// The protocol logic lives in Session, a step-driven state machine and the
// only code on the worker side that builds a protocol message: the
// goroutine runtimes (Run, RunParallel), the multi-job workers of
// internal/jobs, the discrete-event grid simulator (internal/gridsim) and
// the chaos harness all drive the same code, so simulated statistics are
// produced by the real protocol, not a model of it.
//
// A session explores with the paper's single explorer or, given Cores > 1,
// with the one multicore engine (shard.go): shard explorers over a tiling
// of the interval, presenting one fold. The engine has two schedulers: a
// stepped one that advances the shards round-robin on the caller's
// goroutine, deterministic for the simulator and the harness, and a
// goroutine one for real hosts (RunParallel, SolveLocal).
package worker

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
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
	// Cores is how many shard explorers each job's engine runs over a
	// tiling of its assigned interval (the intra-worker multicore engine;
	// see DESIGN.md §7). It needs one Problem instance per shard, so
	// NewSession, which is handed a single instance, ignores it. Sessions
	// step the shards deterministically on the calling goroutine;
	// RunParallel runs them on goroutines of their own, where zero means
	// runtime.GOMAXPROCS. Zero or one keeps the paper's single-explorer
	// worker.
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
// interval-driven Explorer, or the multicore shard engine (shard.go, under
// its stepped or its goroutine scheduler) that presents the same
// fold/restrict surface over a tiling of the interval. Everything the
// protocol state machine needs is here; *core.Explorer satisfies it as-is.
type engine interface {
	Step(budget int64) (explored int64, done bool)
	Remaining() interval.Interval
	Restrict(iv interval.Interval)
	Reassign(iv interval.Interval)
	AdoptBest(cost int64)
	Best() bb.Solution
	Stats() bb.Stats
}

// jobState is one job's side of the session: numbering, incumbent and
// counters are per tree, so nothing here is ever shared across jobs.
type jobState struct {
	// tag is the WorkReply.Job the engine was built for, echoed on every
	// fold and report so a multi-tenant coordinator routes them to the
	// table the interval came from. Empty against a plain farmer.
	tag         string
	ex          engine
	intervalID  int64
	sinceUpdate int64
	reported    bb.Stats // stats already shipped to the coordinator
}

// Session is the worker's protocol state machine. Drive it with Advance.
// Not safe for concurrent use: every coordinator call is made by the
// goroutine driving it.
type Session struct {
	cfg   Config
	coord transport.Coordinator

	// problems resolves a job tag to that job's problem constructor. A
	// worker can only explore trees it can rebuild locally; an assignment
	// for an unresolvable job is a configuration error. sole marks the
	// one-problem session: its resolver binds the first tag it meets, and
	// that job's Finished verdict ends the session. A multi-job session
	// ends only when the coordinator answers WorkFinished.
	problems func(job string) (func() bb.Problem, bool)
	sole     bool
	// concurrent selects the shard engine's goroutine scheduler.
	concurrent bool

	// jobs holds the state of every job served so far; cur is the one most
	// recently assigned and haveWork says its interval is still held (a
	// session holds at most one interval at a time).
	jobs     map[string]*jobState
	cur      *jobState
	haveWork bool
	finished bool
	pushErr  error

	// ahead holds the nodes Prefetch explored before the driver budgeted
	// them, one counter kind each (aheadPruned, aheadLeaf, or zero for a
	// node descended into); ahead[spent:] are still to be handed out by
	// Advance. held is an improvement found on the last of them: its push
	// waits until that node is spent. holding routes pushSolution into
	// held while Prefetch runs.
	ahead   []byte
	spent   int
	held    *bb.Solution
	holding bool

	// Messages counts protocol calls by kind, for tests and statistics.
	Messages struct {
		Requests, Updates, Reports int64
	}
}

func newSession(cfg Config, coord transport.Coordinator, problems func(string) (func() bb.Problem, bool), sole bool) *Session {
	cfg.fillDefaults()
	return &Session{cfg: cfg, coord: coord, problems: problems, sole: sole, jobs: make(map[string]*jobState)}
}

// bindFirst is the one-problem resolver: the first job tag asked for is
// bound to factory — a plain farmer's empty tag, or whatever id the
// operator submitted the job under — and any other tag is refused.
func bindFirst(factory func() bb.Problem) func(string) (func() bb.Problem, bool) {
	bound, tag := false, ""
	return func(job string) (func() bb.Problem, bool) {
		if !bound {
			bound, tag = true, job
		}
		return factory, job == tag
	}
}

// NewSession builds a session over a problem and a coordinator connection.
// The session hosts the paper's single interval-driven explorer; Cores is
// ignored here because one Problem instance can only back one shard — use
// NewShardedSession with a factory for the multicore engine.
func NewSession(cfg Config, coord transport.Coordinator, prob bb.Problem) *Session {
	cfg.Cores = 1
	return newSession(cfg, coord, bindFirst(func() bb.Problem { return prob }), true)
}

// NewShardedSession builds a session whose exploration engine runs
// cfg.Cores shard explorers over a tiling of the assigned interval, each on
// its own Problem instance from factory. The engine runs under its stepped
// scheduler, deterministically inside Advance (round-robin shards,
// richest-victim halving steals, improvements pushed from the slice that
// found them), so the session stays a single-threaded state machine:
// the grid simulator and the chaos harness drive multicore workers with
// byte-identical traces, while the farmer still sees the paper's exact
// single-worker protocol — one fold, one power, one checkpoint. Cores <= 1
// degenerates to the classic single-explorer session.
func NewShardedSession(cfg Config, coord transport.Coordinator, factory func() bb.Problem) *Session {
	return newSession(cfg, coord, bindFirst(factory), true)
}

// NewMultiJobSession builds a session that serves whichever job the
// coordinator's fair-share rule routes it to: it asks an untagged
// RequestWork, learns the job from the reply tag, and keeps one engine
// (sharded when cfg.Cores > 1) per job it has ever served, built from the
// constructor problems resolves the tag to. It ends when the coordinator
// answers WorkFinished — the whole table is drained.
func NewMultiJobSession(cfg Config, coord transport.Coordinator, problems func(job string) (func() bb.Problem, bool)) *Session {
	return newSession(cfg, coord, problems, false)
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

// Stats returns the cumulative exploration counters of the local engines,
// summed over every job served. Nodes Prefetch explored that Advance has
// not handed out yet are not counted.
func (s *Session) Stats() bb.Stats {
	var out bb.Stats
	for _, st := range s.jobs {
		out.Add(st.ex.Stats())
	}
	out.Add(s.unspent())
	return out
}

// JobStats returns one job's local exploration counters, without the
// nodes explored ahead.
func (s *Session) JobStats(job string) bb.Stats {
	st, ok := s.jobs[job]
	if !ok {
		return bb.Stats{}
	}
	out := st.ex.Stats()
	if st == s.cur {
		out.Add(s.unspent())
	}
	return out
}

// Kinds of a node explored ahead, for unspent.
const (
	aheadPruned byte = 1 << iota
	aheadLeaf
)

// unspent returns the counters of the nodes explored ahead and not handed
// out yet, negated.
func (s *Session) unspent() bb.Stats {
	var out bb.Stats
	for _, k := range s.ahead[s.spent:] {
		out.Explored--
		out.Pruned -= int64(k & aheadPruned)
		out.Leaves -= int64(k&aheadLeaf) >> 1
	}
	if s.held != nil {
		out.Improved--
	}
	return out
}

// Reported returns the cumulative statistics already shipped to the
// coordinator. The difference with Stats is the work that would be redone
// if this worker crashed right now — the raw material of the paper's
// redundant-node rate.
func (s *Session) Reported() bb.Stats {
	var out bb.Stats
	for _, st := range s.jobs {
		out.Add(st.reported)
	}
	return out
}

// Best returns the local best solution of the job most recently worked on
// (which, thanks to sharing, tracks that job's global best cost).
func (s *Session) Best() bb.Solution {
	if s.cur == nil {
		return bb.Solution{Cost: bb.Infinity}
	}
	return s.cur.ex.Best()
}

// Advance explores up to budget nodes, interleaving protocol exchanges as
// they come due; nodes Prefetch explored are handed out first. It returns
// the number of nodes actually explored and whether the whole resolution
// is finished. A (0, false, nil) return without work held means the
// coordinator asked the worker to wait.
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
		st := s.cur
		if s.spent < len(s.ahead) {
			// Nodes Prefetch explored: hand them out first. The last one
			// owes whatever exchange the engine call that explored it
			// would have made: a held push, then a due update.
			n := min(budget-explored, int64(len(s.ahead)-s.spent))
			s.spent += int(n)
			explored += n
			st.sinceUpdate += n
			if s.spent < len(s.ahead) {
				break
			}
			s.ahead, s.spent = s.ahead[:0], 0
			if sol := s.held; sol != nil {
				s.held = nil
				s.pushSolution(st, *sol)
				if err := s.takePushErr(); err != nil {
					return explored, s.finished, err
				}
			}
			if st.sinceUpdate >= s.cfg.UpdatePeriodNodes {
				if err := s.update(); err != nil {
					return explored, s.finished, err
				}
			}
			continue
		}
		slice := min(budget-explored, s.cfg.UpdatePeriodNodes-st.sinceUpdate)
		n, done := st.ex.Step(slice)
		explored += n
		st.sinceUpdate += n
		if err := s.takePushErr(); err != nil {
			return explored, s.finished, err
		}
		if done || st.sinceUpdate >= s.cfg.UpdatePeriodNodes {
			if err := s.update(); err != nil {
				return explored, s.finished, err
			}
		} else if n == 0 {
			// Only the goroutine scheduler's safety-net wait ends a step
			// with nothing new: hand control back so the driver can look
			// at its context.
			break
		}
	}
	return explored, s.finished, nil
}

// Prefetch explores up to limit nodes of the held interval ahead of the
// driver's budget, with no exchange, and returns how many nodes the session
// now holds ahead; Advance hands them out before it steps the engine again.
// It stops on the node where a per-budget run would talk to the
// coordinator: the one completing an update period (the update is sent
// when Advance spends it), an improving leaf (its report is held until
// then) and the interval's end. It never takes a step past limit, so the
// step that finds the interval's end is one the driver's own budgets
// would take before any fold.
//
// It is the simulator's lookahead (DESIGN.md §4): exact only when limit is
// no more than the budgets the driver will pass to Advance before anything
// else touches the session. A live worker must push an improvement the
// moment it finds it (§4.4 rule 2) and never calls it. A session that
// already holds nodes ahead, holds no interval or runs the shard engine
// explores nothing; Prefetch(0) reports the nodes held ahead.
func (s *Session) Prefetch(limit int64) int64 {
	if limit <= 0 || s.spent < len(s.ahead) || !s.haveWork || s.finished {
		return int64(len(s.ahead) - s.spent)
	}
	st := s.cur
	ex, ok := st.ex.(*core.Explorer)
	if !ok {
		return 0
	}
	limit = min(limit, s.cfg.UpdatePeriodNodes-st.sinceUpdate)
	s.ahead = slices.Grow(s.ahead, int(limit))
	s.holding = true
	for int64(len(s.ahead)) < limit && s.held == nil {
		before := ex.Stats()
		if n, _ := ex.Step(1); n == 0 {
			break // the interval's end
		}
		after := ex.Stats()
		s.ahead = append(s.ahead, byte(after.Pruned-before.Pruned)*aheadPruned|byte(after.Leaves-before.Leaves)*aheadLeaf)
	}
	s.holding = false
	return int64(len(s.ahead))
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
		st, err := s.job(reply.Job)
		if err != nil {
			return false, err
		}
		st.ex.AdoptBest(reply.BestCost)
		st.ex.Reassign(reply.Interval)
		st.intervalID, st.sinceUpdate = reply.IntervalID, 0
		s.cur, s.haveWork = st, true
		return true, nil
	default:
		return false, fmt.Errorf("worker %s: unknown work status %v", s.cfg.ID, reply.Status)
	}
}

// job returns the state of the tagged job, building its engine — idle,
// with no incumbent — the first time the tag is met.
func (s *Session) job(tag string) (*jobState, error) {
	if st, ok := s.jobs[tag]; ok {
		return st, nil
	}
	factory, ok := s.problems(tag)
	if !ok {
		serving := make([]string, 0, len(s.jobs))
		for t := range s.jobs {
			serving = append(serving, t)
		}
		sort.Strings(serving)
		return nil, fmt.Errorf("worker %s: no problem for job %q (serving %q)", s.cfg.ID, tag, serving)
	}
	st := &jobState{tag: tag}
	push := func(sol bb.Solution) { s.pushSolution(st, sol) }
	probs := make([]bb.Problem, max(s.cfg.Cores, 1))
	for i := range probs {
		probs[i] = factory()
	}
	if len(probs) == 1 {
		ex := core.NewExplorer(probs[0], core.NewNumbering(probs[0].Shape()), interval.Interval{}, bb.Infinity)
		ex.OnImprove = push
		st.ex = ex
	} else {
		g := newShardEngine(probs, s.cfg.StepSize, push)
		if s.concurrent {
			g.start(s.cfg.StepSize)
		}
		st.ex = g
	}
	s.jobs[tag] = st
	return st, nil
}

// pushSolution implements rule 2 of solution sharing: improvements go to
// the coordinator immediately. It runs inside the engine's Step (or, under
// the goroutine scheduler, its Remaining); errors are stashed and surfaced
// by the caller of either.
func (s *Session) pushSolution(st *jobState, sol bb.Solution) {
	if s.holding {
		s.held = &sol
		return
	}
	s.Messages.Reports++
	ack, err := s.coord.ReportSolution(transport.SolutionReport{
		Worker: s.cfg.ID, Cost: sol.Cost, Path: sol.Path, Job: st.tag,
	})
	if err != nil {
		s.pushErr = fmt.Errorf("worker %s: report solution: %w", s.cfg.ID, err)
		return
	}
	st.ex.AdoptBest(ack.BestCost)
}

// takePushErr returns and clears a stashed report error.
func (s *Session) takePushErr() error {
	err := s.pushErr
	s.pushErr = nil
	return err
}

// update re-registers the folded remaining interval of the held job (the
// worker checkpoint of §4.1), ships statistics deltas, applies the
// intersected copy and the shared best, and releases the interval when it
// is finished or was retired by the coordinator.
func (s *Session) update() error {
	st := s.cur
	// Fold before counting: an engine that keeps exploring during the call
	// then never claims ground its counters have not paid for.
	rem := st.ex.Remaining()
	if err := s.takePushErr(); err != nil {
		return err
	}
	stats := st.ex.Stats()
	s.Messages.Updates++
	reply, err := s.coord.UpdateInterval(transport.UpdateRequest{
		Worker:        s.cfg.ID,
		IntervalID:    st.intervalID,
		Remaining:     rem,
		Power:         s.cfg.Power,
		ExploredDelta: stats.Explored - st.reported.Explored,
		PrunedDelta:   stats.Pruned - st.reported.Pruned,
		LeavesDelta:   stats.Leaves - st.reported.Leaves,
		Job:           st.tag,
	})
	if err != nil {
		return fmt.Errorf("worker %s: update interval: %w", s.cfg.ID, err)
	}
	st.reported = stats
	st.sinceUpdate = 0
	if s.sole {
		s.finished = reply.Finished
	}
	if !reply.Known {
		// Interval completed elsewhere or reassigned after this worker
		// was presumed dead: drop it.
		st.ex.Reassign(interval.Interval{})
		s.haveWork = false
		return nil
	}
	st.ex.Restrict(reply.Interval)
	st.ex.AdoptBest(reply.BestCost)
	// Release on what the fold said, not on the engine's state now: the
	// coordinator retires the interval when it saw an empty fold or its
	// intersected copy came back empty. An engine that ran dry during the
	// call still owns a non-empty leased copy there, and only its next
	// (empty) fold releases it — dropping early would strand that copy
	// until the lease expires and re-explore it wholesale.
	if rem.IsEmpty() || reply.Interval.IsEmpty() {
		s.haveWork = false
	}
	return nil
}

// Checkpoint forces an immediate interval update if the session holds work:
// the graceful-leave path of a cycle-stealing host (the owner reclaims the
// machine, the B&B process checkpoints and dies; nothing is lost). It is a
// no-op without work, and an error while nodes Prefetch explored are
// unspent: the fold would claim ground the driver has not budgeted yet.
func (s *Session) Checkpoint() error {
	if n := len(s.ahead) - s.spent; n > 0 {
		return fmt.Errorf("worker %s: checkpoint with %d prefetched nodes unspent", s.cfg.ID, n)
	}
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

// Run drives a single-explorer session until the resolution finishes or the
// context is cancelled; on cancellation it leaves gracefully, with one
// final Checkpoint. Wait replies back off with a short sleep (the
// cycle-stealing worker keeps polling; remember the farmer never calls
// back).
func Run(ctx context.Context, cfg Config, coord transport.Coordinator, prob bb.Problem) (Result, error) {
	return NewSession(cfg, coord, prob).run(ctx)
}

// RunParallel is Run over the multicore engine's goroutine scheduler:
// cfg.Cores shard explorers (zero means runtime.GOMAXPROCS) run
// concurrently, one goroutine each, over a tiling of the worker's assigned
// interval, while the calling goroutine owns the protocol — every
// coordinator call is made from it. factory must return a fresh Problem
// per call (one per shard; Problem state machines are single-threaded).
//
// The farmer-visible protocol is byte-for-byte the single-worker protocol:
// one fold, one power, one interval id. It is the same engine
// NewShardedSession steps, but scheduled by the Go runtime and therefore
// not deterministic — the simulator and the chaos harness use
// NewShardedSession instead (DESIGN.md §7).
func RunParallel(ctx context.Context, cfg Config, coord transport.Coordinator, factory func() bb.Problem) (Result, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = runtime.GOMAXPROCS(0)
	}
	s := NewShardedSession(cfg, coord, factory)
	s.concurrent = true
	return s.run(ctx)
}

// run is the one driver loop of the goroutine runtimes.
func (s *Session) run(ctx context.Context) (Result, error) {
	defer s.stop()
	backoff := 10 * time.Millisecond
	calStart := time.Now()
	var calNodes int64
	for ctx.Err() == nil {
		n, finished, err := s.Advance(s.cfg.StepSize)
		if err != nil || finished {
			return s.result(), err
		}
		if s.cfg.AutoPower {
			calNodes += n
			if elapsed := time.Since(calStart); elapsed >= 2*time.Second {
				s.SetPower(calNodes * int64(time.Second) / int64(elapsed))
				calStart, calNodes = time.Now(), 0
			}
		}
		if n > 0 || s.haveWork {
			backoff = 10 * time.Millisecond
			continue
		}
		// Told to wait.
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
	// Graceful leave: quiesce the engines so the fold is final, then
	// checkpoint once, so nothing explored here is explored again. The
	// call is not bound to ctx (it is already cancelled); the transport's
	// own call timeout bounds it.
	s.stop()
	err := ctx.Err()
	if cerr := s.Checkpoint(); cerr != nil {
		err = fmt.Errorf("%w; final checkpoint: %w", err, cerr)
	}
	return s.result(), err
}

// stop ends the shard goroutines of every multicore engine. Idempotent.
func (s *Session) stop() {
	for _, st := range s.jobs {
		if g, ok := st.ex.(*shardEngine); ok {
			g.stop()
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
