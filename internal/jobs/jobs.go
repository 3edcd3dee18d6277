// Package jobs is the multi-tenant layer over the single-resolution
// farmer: a keyed job table sharing one grid across many concurrent B&B
// resolutions. Each job owns a private farmer (its INTERVALS and SOLUTION
// files, §4.1–§4.4 of the paper, unchanged), a checkpoint namespace under
// one shared store directory, and a fair share of the fleet.
//
// The table itself implements transport.Coordinator, so the existing RPC
// server serves it without modification. Routing is by the Job tag on the
// three protocol messages: a fold or a report must carry the tag its
// interval was assigned under (WorkReply.Job, which every worker echoes),
// and an untagged one is a counted rejection — the table never guesses
// which tenant a number belongs to. An untagged RequestWork is answered
// by whichever running job has the smallest weighted fleet power —
// deficit-based fair share: the job furthest below its entitled slice of
// the grid gets the next worker. Within the chosen job, the paper's §4.2
// selection and partitioning operators decide which interval to donate,
// exactly as before.
package jobs

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/transport"
)

// State is a job's position in its lifecycle.
type State int

const (
	// Queued: admitted but waiting for a running slot.
	Queued State = iota
	// Running: owns a live farmer and receives traffic.
	Running
	// Done: the resolution completed — INTERVALS drained, optimum proven.
	Done
	// Cancelled: stopped by the operator before completion. The last
	// checkpoint (if any) stays on disk, so a cancelled job can be
	// resubmitted under the same id and resume where it left off.
	Cancelled
	// Failed: the job could not start (checkpoint store failure).
	Failed
	// Quarantined: the job's checkpoint was corrupt beyond fallback at
	// resume time (checkpoint.ErrCorrupt). The corrupt files sit in the
	// store's quarantine directory, the load error is queryable, and the
	// rest of the table keeps running — one bad disk sector must not
	// block service restart. Resubmitting the id starts the job over
	// from whatever the store still holds (usually nothing).
	Quarantined
)

// String renders the state for logs and the HTTP API.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Cancelled:
		return "cancelled"
	case Failed:
		return "failed"
	case Quarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// maxWeight bounds a job's fair-share weight. The bound is policy, not
// arithmetic — shares compare through a full 128-bit product — but a
// weight ceiling keeps one tenant from dwarfing everyone else by typo.
const maxWeight = 1 << 20

// Config shapes a Table.
type Config struct {
	// MaxActive bounds concurrently running jobs; zero means 8.
	MaxActive int
	// MaxQueued bounds the admission queue; zero means 64.
	MaxQueued int
	// MaxPerUser bounds one owner's queued+running jobs; zero means
	// unlimited.
	MaxPerUser int
	// Store, when non-nil, gives every job a checkpoint namespace under
	// one directory; Submit resumes from an existing namespace.
	Store *checkpoint.Store
	// Clock and LeaseTTL pass through to every job's farmer.
	Clock    func() int64
	LeaseTTL time.Duration
	// KeepAlive makes an empty table answer untagged work requests with
	// WorkWait instead of WorkFinished: a live service expects more
	// submissions, a batch harness wants workers to drain and stop.
	KeepAlive bool
	// Wrap, when non-nil, intercepts each job's protocol endpoint — the
	// conformance harness hangs its per-job tracker here. It runs every
	// time the job's farmer is built, a resumption included. Progress and
	// fair-share accounting still read the farmer directly.
	Wrap func(id string, f *farmer.Farmer) transport.Coordinator
}

// Counters tallies table-level events. Every hostile or misaddressed
// message lands in exactly one rejection counter and mutates nothing else
// — the same boundary discipline the farmer applies to intervals.
type Counters struct {
	// Submitted, Resumed, Completed, Cancelled count job lifecycle
	// transitions (Resumed is the subset of Submitted that restored a
	// checkpoint namespace).
	Submitted, Resumed, Completed, Cancelled int64
	// RejectedSubmits counts submissions refused by admission control:
	// duplicate id, full queue, or a per-user cap.
	RejectedSubmits int64
	// InvalidJobIDs counts messages naming a job id that cannot be a
	// checkpoint namespace (empty — an untagged fold or report —
	// oversize, or with path-capable bytes).
	InvalidJobIDs int64
	// UnknownJobs counts messages naming a well-formed id the table has
	// never seen.
	UnknownJobs int64
	// StoppedJobTraffic counts messages addressed to a cancelled, done,
	// or failed job; they are answered with a terminal verdict (the
	// worker must drop that job). A done job's late folds still reach
	// its kept farmer, which counts them and has no interval left for
	// them to touch.
	StoppedJobTraffic int64
	// FairShareAssignments counts untagged work requests that the
	// deficit rule routed to a job.
	FairShareAssignments int64
	// QuarantinedJobs counts jobs whose checkpoint was corrupt beyond
	// fallback at start — each one is parked in the Quarantined state
	// with its load error, never silently dropped.
	QuarantinedJobs int64
	// CorruptSnapshots and FallbackLoads aggregate the shared store's
	// self-healing counters (checkpoint.Stats) across every namespace:
	// files quarantined and loads served from a previous generation.
	CorruptSnapshots, FallbackLoads int64
}

// job is one tenant resolution.
type job struct {
	id     string
	spec   Spec
	weight int64
	seq    int64
	state  State
	err    error

	factory func() bb.Problem
	root    interval.Interval
	rootLen *big.Int
	// opts are the job's own farmer options from Submit, kept for a
	// queued start.
	opts []farmer.Option

	f     *farmer.Farmer        // live while Running, kept after Done
	coord transport.Coordinator // f, possibly wrapped

	// Terminal snapshot, captured when the job stops: the best answers
	// stopped-job traffic, and after a cancel, which drops the farmer, both
	// keep Progress answerable forever.
	best bb.Solution
	ctrs farmer.Counters
}

// Table is the multi-tenant coordinator. Safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	cfg     Config
	jobs    map[string]*job
	order   []*job // every job ever admitted, in submission order
	queue   []*job // admitted, waiting for a slot (FIFO)
	running []*job // live jobs, in submission order
	seq     int64
	ctr     Counters
}

// NewTable builds an empty job table.
func NewTable(cfg Config) *Table {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 8
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	return &Table{cfg: cfg, jobs: make(map[string]*job)}
}

// clipID bounds an attacker-chosen id for error messages.
func clipID(id string) string {
	if len(id) > 40 {
		return id[:40] + "..."
	}
	return id
}

// Submit admits a job under id. The id doubles as the job's checkpoint
// namespace, so it must satisfy checkpoint.ValidNamespace. If the table's
// store already holds a checkpoint under that namespace, the job resumes
// from it instead of starting fresh — this is both crash recovery and the
// cancel/resubmit pause button (an in-process root restart is exactly
// that pair). opts are the job's own farmer options (threshold, initial
// best, a farmer tree's derived root options); the table's clock, lease
// and store options are applied after them. A resubmission passes its
// options again.
func (tb *Table) Submit(id string, spec Spec, opts ...farmer.Option) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !checkpoint.ValidNamespace(id) {
		tb.ctr.InvalidJobIDs++
		return fmt.Errorf("jobs: invalid job id %q", clipID(id))
	}
	prev, resubmit := tb.jobs[id]
	if resubmit && prev.state != Cancelled && prev.state != Failed && prev.state != Quarantined {
		tb.ctr.RejectedSubmits++
		return fmt.Errorf("jobs: job %q already exists (%s)", id, prev.state)
	}
	factory, err := spec.Factory()
	if err != nil {
		tb.ctr.RejectedSubmits++
		return err
	}
	if tb.cfg.MaxPerUser > 0 {
		live := 0
		for _, j := range tb.jobs {
			if j.spec.Owner == spec.Owner && (j.state == Queued || j.state == Running) {
				live++
			}
		}
		if live >= tb.cfg.MaxPerUser {
			tb.ctr.RejectedSubmits++
			return fmt.Errorf("jobs: owner %q already has %d live jobs (cap %d)",
				spec.Owner, live, tb.cfg.MaxPerUser)
		}
	}
	if len(tb.running) >= tb.cfg.MaxActive && len(tb.queue) >= tb.cfg.MaxQueued {
		tb.ctr.RejectedSubmits++
		return fmt.Errorf("jobs: admission queue full (%d running, %d queued)",
			len(tb.running), len(tb.queue))
	}
	weight := min(max(spec.Weight, 1), maxWeight)
	nb := core.NewNumbering(factory().Shape())
	root := nb.RootRange()
	tb.seq++
	j := &job{
		id:      id,
		spec:    spec,
		weight:  weight,
		seq:     tb.seq,
		factory: factory,
		root:    root,
		rootLen: root.Len(),
		opts:    opts,
		best:    bb.Solution{Cost: bb.Infinity},
	}
	tb.jobs[id] = j
	if resubmit {
		tb.order[slices.Index(tb.order, prev)] = j // takes its predecessor's place
	} else {
		tb.order = append(tb.order, j)
	}
	tb.ctr.Submitted++
	if len(tb.running) < tb.cfg.MaxActive {
		return tb.startLocked(j)
	}
	j.state = Queued
	tb.queue = append(tb.queue, j)
	return nil
}

// startLocked brings an admitted job live: build (or restore) its farmer
// and enter it into the running set.
func (tb *Table) startLocked(j *job) error {
	opts := slices.Clone(j.opts)
	if tb.cfg.Clock != nil {
		opts = append(opts, farmer.WithClock(tb.cfg.Clock))
	}
	if tb.cfg.LeaseTTL > 0 {
		opts = append(opts, farmer.WithLeaseTTL(tb.cfg.LeaseTTL))
	}
	if j.spec.InitialUpper != 0 {
		opts = append(opts, farmer.WithInitialBest(j.spec.InitialUpper, nil))
	}
	var ns *checkpoint.Store
	if tb.cfg.Store != nil {
		var err error
		ns, err = tb.cfg.Store.Namespace(j.id)
		if err != nil {
			j.state = Failed
			j.err = err
			return fmt.Errorf("jobs: start %q: %w", j.id, err)
		}
		opts = append(opts, farmer.WithCheckpointStore(ns))
	}
	if ns != nil && ns.Exists() {
		f, err := farmer.Restore(j.root, ns, opts...)
		if err != nil {
			// A corrupt snapshot with no generation left to fall back to
			// quarantines this one job; any other failure is Failed. Either
			// way the job stays in the table with its error, and the rest
			// of the service is unaffected.
			if errors.Is(err, checkpoint.ErrCorrupt) {
				j.state = Quarantined
				tb.ctr.QuarantinedJobs++
			} else {
				j.state = Failed
			}
			j.err = err
			return fmt.Errorf("jobs: resume %q: %w", j.id, err)
		}
		j.f = f
		tb.ctr.Resumed++
	} else {
		j.f = farmer.New(j.root, opts...)
	}
	j.coord = j.f
	if tb.cfg.Wrap != nil {
		j.coord = tb.cfg.Wrap(j.id, j.f)
	}
	j.state = Running
	tb.running = append(tb.running, j)
	return nil
}

// finishLocked retires a completed job and promotes the queue head into
// the freed slot. The job keeps its farmer: late folds still land there,
// so a one-job table counts them exactly as the bare farmer would.
func (tb *Table) finishLocked(j *job) {
	if j.state != Running {
		return
	}
	j.state = Done
	j.best = j.f.Best()
	tb.dropRunningLocked(j)
	tb.ctr.Completed++
	tb.promoteLocked()
}

// promoteLocked starts queued jobs while slots are free. A promotion that
// fails to start (checkpoint store trouble) is marked Failed and the next
// queued job gets its chance.
func (tb *Table) promoteLocked() {
	for len(tb.running) < tb.cfg.MaxActive && len(tb.queue) > 0 {
		next := tb.queue[0]
		tb.queue = tb.queue[1:]
		_ = tb.startLocked(next) // Failed state recorded on the job itself
	}
}

func (tb *Table) dropRunningLocked(j *job) {
	for i, r := range tb.running {
		if r == j {
			tb.running = append(tb.running[:i], tb.running[i+1:]...)
			return
		}
	}
}

// Cancel stops a queued or running job. Its incumbent and counters stay
// queryable; its checkpoint files (if any) stay on disk so a resubmission
// under the same id resumes from them.
func (tb *Table) Cancel(id string) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !checkpoint.ValidNamespace(id) {
		tb.ctr.InvalidJobIDs++
		return fmt.Errorf("jobs: invalid job id %q", clipID(id))
	}
	j, ok := tb.jobs[id]
	if !ok {
		tb.ctr.UnknownJobs++
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	switch j.state {
	case Queued:
		for i, q := range tb.queue {
			if q == j {
				tb.queue = append(tb.queue[:i], tb.queue[i+1:]...)
				break
			}
		}
	case Running:
		j.best = j.f.Best()
		j.ctrs = j.f.Counters()
		j.f = nil
		j.coord = nil
		tb.dropRunningLocked(j)
		defer tb.promoteLocked()
	default:
		return fmt.Errorf("jobs: job %q is already %s", id, j.state)
	}
	j.state = Cancelled
	tb.ctr.Cancelled++
	return nil
}

// shareLess reports whether job a's weighted fleet share (fa/wa) is
// strictly below job b's (fb/wb), compared exactly as fa·wb < fb·wa in
// 128 bits — no overflow, no float drift, so the pick is deterministic.
func shareLess(fa, wa, fb, wb int64) bool {
	hi1, lo1 := bits.Mul64(uint64(fa), uint64(wb))
	hi2, lo2 := bits.Mul64(uint64(fb), uint64(wa))
	return hi1 < hi2 || (hi1 == hi2 && lo1 < lo2)
}

// pickLocked applies the fair-share rule: among running jobs, the one
// with the smallest fleet-power-per-weight is furthest below its
// entitlement and receives the next worker. Ties go to the earliest
// submission. Leases are expired first so a job whose workers all died
// does not look saturated forever.
func (tb *Table) pickLocked() *job {
	var best *job
	var bf, bw int64
	for _, j := range tb.running {
		j.f.ExpireNow()
		fp := j.f.FleetPower()
		if best == nil || shareLess(fp, j.weight, bf, bw) {
			best, bf, bw = j, fp, j.weight
		}
	}
	return best
}

// routeLocked resolves a message's job tag to a table entry, charging the
// appropriate rejection counter on failure. An empty tag is invalid like
// any other malformed one: interval ids are per job, so routing an
// untagged fold to "the only job running" would let a straggler from a
// cancelled job shrink its successor's table with numbers from another
// tree.
func (tb *Table) routeLocked(id string) (*job, error) {
	if !checkpoint.ValidNamespace(id) {
		tb.ctr.InvalidJobIDs++
		return nil, fmt.Errorf("jobs: invalid job id %q", clipID(id))
	}
	j, ok := tb.jobs[id]
	if !ok {
		tb.ctr.UnknownJobs++
		return nil, fmt.Errorf("jobs: unknown job %q", id)
	}
	return j, nil
}

// RequestWork implements transport.Coordinator. A tagged request is
// pinned to its job; an untagged one is routed by fair share, and the
// reply's Job field tells the worker which table it must fold into.
func (tb *Table) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if req.Job != "" {
		j, err := tb.routeLocked(req.Job)
		if err != nil {
			return transport.WorkReply{}, err
		}
		switch j.state {
		case Queued:
			return transport.WorkReply{Status: transport.WorkWait, BestCost: j.best.Cost, Job: j.id}, nil
		case Running:
			rep, err := j.coord.RequestWork(req)
			if err != nil {
				return rep, err
			}
			rep.Job = j.id
			if rep.Status == transport.WorkFinished {
				tb.finishLocked(j)
			}
			return rep, nil
		default: // Done, Cancelled, Failed
			tb.ctr.StoppedJobTraffic++
			return transport.WorkReply{Status: transport.WorkFinished, BestCost: j.best.Cost, Job: j.id}, nil
		}
	}
	// Fair share: try jobs in deficit order until one donates. A job
	// answering WorkFinished is retired on the spot and the next-most
	// starved candidate gets the request.
	for {
		j := tb.pickLocked()
		if j == nil {
			break
		}
		rep, err := j.coord.RequestWork(req)
		if err != nil {
			// A boundary rejection (bad power, oversize id) is about
			// the requester, not the job; no other job would answer
			// differently.
			return rep, err
		}
		switch rep.Status {
		case transport.WorkAssigned:
			tb.ctr.FairShareAssignments++
			rep.Job = j.id
			return rep, nil
		case transport.WorkWait:
			rep.Job = j.id
			return rep, nil
		default: // WorkFinished: this job just drained
			tb.finishLocked(j)
		}
	}
	if tb.cfg.KeepAlive || len(tb.queue) > 0 {
		return transport.WorkReply{Status: transport.WorkWait, BestCost: bb.Infinity}, nil
	}
	return transport.WorkReply{Status: transport.WorkFinished, BestCost: bb.Infinity}, nil
}

// UpdateInterval implements transport.Coordinator: the fold is routed to
// the job named by the tag. A fold for a stopped job answers
// Known:false/Finished:true — the worker drops the interval and, if it is
// a single-job worker, stops; interval state is never touched, but the
// fold's progress deltas count toward the stopped job: a done job's kept
// farmer takes the fold itself, a cancelled job's snapshot is credited.
func (tb *Table) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	j, err := tb.routeLocked(req.Job)
	if err != nil {
		return transport.UpdateReply{}, err
	}
	switch j.state {
	case Running:
		rep, err := j.coord.UpdateInterval(req)
		if err != nil {
			return rep, err
		}
		if rep.Finished {
			tb.finishLocked(j)
		}
		return rep, nil
	case Queued:
		// A queued job has no farmer yet, so no interval of it can be
		// legitimately held; the fold is misaddressed.
		tb.ctr.StoppedJobTraffic++
		return transport.UpdateReply{Known: false, BestCost: j.best.Cost}, nil
	case Done:
		// A late fold: the worker explored these nodes before it could
		// learn the job had finished. The kept farmer has no interval
		// left, so it answers Known:false/Finished:true and counts the
		// fold as it would have without the table in front of it.
		tb.ctr.StoppedJobTraffic++
		return j.coord.UpdateInterval(req)
	default:
		// A late fold for a job whose farmer is gone: the nodes still
		// count toward the job's totals. No farmer vets this branch, so
		// the live farmer's refusal of negative deltas is applied here —
		// a late fold must not be a way to unwind counters.
		tb.ctr.StoppedJobTraffic++
		if req.ExploredDelta < 0 || req.PrunedDelta < 0 || req.LeavesDelta < 0 {
			j.ctrs.RejectedIntervals++
			return transport.UpdateReply{}, fmt.Errorf("jobs: rejected update for stopped job %q: negative progress delta", j.id)
		}
		j.ctrs.ExploredNodes += req.ExploredDelta
		j.ctrs.PrunedNodes += req.PrunedDelta
		j.ctrs.EvaluatedLeaves += req.LeavesDelta
		return transport.UpdateReply{Known: false, Finished: true, BestCost: j.best.Cost}, nil
	}
}

// ReportSolution implements transport.Coordinator: the incumbent goes to
// the named job's SOLUTION file and never crosses jobs.
func (tb *Table) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	j, err := tb.routeLocked(req.Job)
	if err != nil {
		return transport.SolutionAck{}, err
	}
	if j.state != Running {
		tb.ctr.StoppedJobTraffic++
		return transport.SolutionAck{BestCost: j.best.Cost}, nil
	}
	return j.coord.ReportSolution(req)
}

// Endpoint returns job id's coordinator: every message is stamped with the
// job's tag and handed to the table, so an in-process client of one job —
// a worker session or a sub-farmer of a farmer tree — needs no tag logic
// of its own. The job need not exist yet; until it does, messages are
// rejected as for any unknown job.
func (tb *Table) Endpoint(id string) transport.Coordinator { return jobEndpoint{tb, id} }

type jobEndpoint struct {
	tb *Table
	id string
}

func (e jobEndpoint) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	req.Job = e.id
	return e.tb.RequestWork(req)
}

func (e jobEndpoint) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	req.Job = e.id
	return e.tb.UpdateInterval(req)
}

func (e jobEndpoint) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	req.Job = e.id
	return e.tb.ReportSolution(req)
}

// Progress is a job's externally visible state.
type Progress struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Domain string `json:"domain"`
	Owner  string `json:"owner,omitempty"`
	// FrontierPct is the explored fraction of the root range, in percent
	// — how much of INTERVALS has drained.
	FrontierPct float64 `json:"frontier_pct"`
	// Intervals is the INTERVALS cardinality; FleetPower the summed
	// speed of live owners (the fair-share currency).
	Intervals  int   `json:"intervals"`
	FleetPower int64 `json:"fleet_power"`
	// BestCost/BestPath mirror the job's SOLUTION file. BestCost is
	// bb.Infinity until a first incumbent lands.
	BestCost int64 `json:"best_cost"`
	BestPath []int `json:"best_path,omitempty"`
	// Counters are the job's farmer counters (Table 2 material).
	Counters farmer.Counters `json:"counters"`
	// Error explains a Failed state.
	Error string `json:"error,omitempty"`
}

func (tb *Table) progressLocked(j *job) Progress {
	p := Progress{
		ID:     j.id,
		State:  j.state.String(),
		Domain: j.spec.Domain,
		Owner:  j.spec.Owner,
	}
	if j.f != nil { // Running, or Done with its farmer kept
		best := j.f.Best()
		p.BestCost, p.BestPath = best.Cost, best.Path
		p.Counters = j.f.Counters()
		p.FleetPower = j.f.FleetPower()
		card, total := j.f.Size()
		p.Intervals = card
		rem, _ := new(big.Rat).SetFrac(total.Big(), j.rootLen).Float64()
		p.FrontierPct = (1 - rem) * 100
	} else {
		p.BestCost, p.BestPath = j.best.Cost, j.best.Path
		p.Counters = j.ctrs
	}
	if j.err != nil {
		p.Error = j.err.Error()
	}
	return p
}

// Progress reports one job's live state.
func (tb *Table) Progress(id string) (Progress, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	j, ok := tb.jobs[id]
	if !ok {
		return Progress{}, fmt.Errorf("jobs: unknown job %q", clipID(id))
	}
	return tb.progressLocked(j), nil
}

// List reports every job in submission order.
func (tb *Table) List() []Progress {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make([]Progress, 0, len(tb.order))
	for _, j := range tb.order {
		out = append(out, tb.progressLocked(j))
	}
	return out
}

// Done reports whether every admitted job reached a terminal state.
func (tb *Table) Done() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return len(tb.running) == 0 && len(tb.queue) == 0
}

// Checkpoint snapshots every running job's farmer into its namespace.
func (tb *Table) Checkpoint() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	var first error
	for _, j := range tb.running {
		if err := j.f.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Counters returns the table-level tallies.
func (tb *Table) Counters() Counters {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	c := tb.ctr
	if tb.cfg.Store != nil {
		st := tb.cfg.Store.Stats()
		c.CorruptSnapshots = st.CorruptSnapshots
		c.FallbackLoads = st.FallbackLoads
	}
	return c
}

// Farmer exposes a running or done job's farmer for drivers, tests and
// local tooling; nil when the job has none (queued, cancelled, failed).
func (tb *Table) Farmer(id string) *farmer.Farmer {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if j, ok := tb.jobs[id]; ok {
		return j.f
	}
	return nil
}
