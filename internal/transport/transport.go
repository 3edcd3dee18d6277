// Package transport defines the farmer–worker protocol of the paper's
// architecture (§4) and its two carriers: direct in-process calls and a TCP
// wire transport for multi-process deployments (Server, Client).
//
// The protocol is strictly pull-model: workers initiate every exchange and
// the farmer never contacts a worker, because workers "can be behind
// fire-walls" (§4). There are exactly three worker-initiated operations:
//
//   - RequestWork — ask for an interval (on joining and on finishing one);
//   - UpdateInterval — periodically re-register the folded remaining
//     interval (the worker-side checkpoint of §4.1) and learn of any
//     shrink decided by load balancing, plus the current global best;
//   - ReportSolution — push an improving solution immediately (§4.4).
//
// Every message carries intervals, never node lists: that size asymmetry is
// the paper's central optimization, quantified by BenchmarkAblationWorkUnitEncoding.
package transport

import (
	"math/big"

	"repro/internal/interval"
)

// WorkerID identifies a B&B process. IDs are chosen by workers (hostname,
// pid, index...) and only need to be unique within one resolution.
type WorkerID string

// WorkStatus is the coordinator's verdict on a work request.
type WorkStatus int

const (
	// WorkAssigned: the reply carries an interval to explore.
	WorkAssigned WorkStatus = iota
	// WorkWait: nothing to assign right now; retry later. Rare — it only
	// happens transiently while the coordinator restores a checkpoint.
	WorkWait
	// WorkFinished: INTERVALS is empty, the resolution is over; the
	// worker must stop (§4.3: the process "is informed by the
	// coordinator that it must resume").
	WorkFinished
)

// String renders the status for logs.
func (s WorkStatus) String() string {
	switch s {
	case WorkAssigned:
		return "assigned"
	case WorkWait:
		return "wait"
	case WorkFinished:
		return "finished"
	default:
		return "unknown"
	}
}

// WorkRequest asks the coordinator for an interval.
type WorkRequest struct {
	// Worker identifies the requesting process.
	Worker WorkerID
	// Power is the requester's self-estimated exploration speed (nodes
	// per second); the partitioning operator splits proportionally to
	// the holder's and requester's powers (§4.2).
	Power int64
	// Job, when non-empty, pins the request to one job of a multi-tenant
	// coordinator (internal/jobs): the reply must come from that job's
	// interval table. Empty means "any job" — a single-job coordinator
	// ignores the field entirely, and a job table picks by fair share.
	Job string
}

// WorkReply carries the assignment.
type WorkReply struct {
	// Status qualifies the reply; the other fields are only meaningful
	// for WorkAssigned.
	Status WorkStatus
	// IntervalID names the coordinator-side copy; the worker echoes it
	// in updates.
	IntervalID int64
	// Interval is the assigned work unit.
	Interval interval.Interval
	// BestCost is the current global best (rule 1 of solution sharing:
	// the worker initializes its local best from SOLUTION, §4.4).
	BestCost int64
	// Duplicated tells the worker its interval is shared with other
	// processes (informational; behaviour is identical).
	Duplicated bool
	// Job names the job the assignment belongs to, when the coordinator
	// is a multi-tenant job table. A worker that asked with an empty
	// WorkRequest.Job learns here which job it was routed to and must
	// echo the value on every fold and report for this interval. Empty
	// from single-job coordinators, so the echo costs them nothing.
	Job string
}

// UpdateRequest re-registers a worker's remaining interval.
type UpdateRequest struct {
	// Worker identifies the process.
	Worker WorkerID
	// IntervalID names the coordinator-side copy being updated.
	IntervalID int64
	// Remaining is the fold of the worker's active-node list.
	Remaining interval.Interval
	// Power refreshes the worker's speed estimate.
	Power int64
	// ExploredDelta, PrunedDelta, LeavesDelta report exploration
	// progress since the previous message, for the Table 2 statistics.
	ExploredDelta, PrunedDelta, LeavesDelta int64
	// HasGap gates Gap: a gap-carving fold (DESIGN.md §12). Gap is a
	// region strictly interior to Remaining that the reporter vouches is
	// fully explored — a sub-farmer's [C,B) hull fold overstates its
	// fragmented table, and the gap lets the coordinator carve the
	// explored hole out instead of re-issuing it as work. Optional: a
	// fold without it keeps plain hull semantics.
	HasGap bool
	Gap    interval.Interval
	// Content, when non-nil, is the true amount of unexplored ground (in
	// leaf units) behind this fold. A sub-farmer's Remaining is the hull
	// of a fragmented table and can overstate its holdings by orders of
	// magnitude; Content lets the coordinator value the copy honestly for
	// size accounting, victim selection, and endgame detection. Advisory
	// and optional: it never moves work by itself.
	Content *big.Int
	// Job routes the fold to one job of a multi-tenant coordinator: the
	// IntervalID namespace is per job, so a fold must name the table it
	// folds into: the worker echoes WorkReply.Job. A job table rejects an
	// untagged fold; a single-job coordinator ignores the field.
	Job string
}

// UpdateReply carries the reconciled interval.
type UpdateReply struct {
	// Finished is true when the whole resolution is over.
	Finished bool
	// Known is false when the coordinator no longer tracks the interval
	// (it was completed, or reassigned after the worker was presumed
	// dead); the worker should drop it and request fresh work.
	Known bool
	// Interval is the authoritative copy after intersection (eq. 14);
	// the worker must restrict itself to it.
	Interval interval.Interval
	// BestCost is the current global best (rule 3 of solution sharing).
	BestCost int64
	// Hint, when non-nil, is a root-initiated steal hint (DESIGN.md §12):
	// a summary of the work the coordinator still tracks beyond the
	// updated copy. Optional: only a tree root built with
	// farmer.TreeConfig.Endgame sends it, so its absence must never
	// change caller behaviour.
	Hint *StealHint
}

// StealHint is the root's frontier summary piggybacked on fold replies to
// its sub-farmers. A draining sub-farmer uses it to refill *before* its
// table runs dry (the work-conserving low-water rule): Others > 0 says
// the root still tracks ground elsewhere, and RichestBits bounds how much.
// It rides existing replies — no new message type, preserving the paper's
// three-operation pull protocol.
type StealHint struct {
	// Others is how many tracked copies the coordinator holds besides
	// the one this reply reconciles.
	Others int64
	// RichestBits is the bit length of the total tracked length beyond
	// the reconciled copy — a magnitude, not an exact count, because the
	// sub-farmer only needs scale to make a refill decision.
	RichestBits int64
}

// SolutionReport pushes an improving solution (rule 2 of solution sharing).
type SolutionReport struct {
	// Worker identifies the discoverer.
	Worker WorkerID
	// Cost is the solution's objective value.
	Cost int64
	// Path is the rank path of the leaf (problem-independent form).
	Path []int
	// Job routes the report to one job's SOLUTION file on a multi-tenant
	// coordinator — incumbents never cross jobs. Echoed from
	// WorkReply.Job like UpdateRequest.Job.
	Job string
}

// SolutionAck acknowledges a report.
type SolutionAck struct {
	// BestCost is the global best after processing the report — it may
	// be better than the reported cost if another worker beat this one.
	BestCost int64
	// Accepted is true when the report improved SOLUTION.
	Accepted bool
}

// BatchRequest is one sub-farmer cadence worth of upstream traffic —
// solution report, interval fold (with retire expressed as an empty
// Remaining), and work refill — as a single message: one round-trip over
// a BatchCoordinator, up to three calls against any other Coordinator
// (see Exchange). Workers keep the three separate calls; the batch exists
// for the hierarchical tree, where a sub-farmer's cadence would otherwise
// pay two to four WAN round-trips. The batch deliberately carries no Job
// field: a sub-farmer's local table must be one partition fragment, so
// its parent is a single-job coordinator by construction.
type BatchRequest struct {
	// Worker and Power are as in WorkRequest/UpdateRequest.
	Worker WorkerID
	Power  int64
	// HasFold gates the UpdateInterval leg: FoldID and Remaining carry
	// what UpdateRequest would, and the three deltas report progress.
	HasFold                                 bool
	FoldID                                  int64
	Remaining                               interval.Interval
	ExploredDelta, PrunedDelta, LeavesDelta int64
	// HasFoldGap/FoldGap mirror UpdateRequest.HasGap/Gap for the fold
	// leg: an explored hole interior to Remaining the coordinator may
	// carve out.
	HasFoldGap bool
	FoldGap    interval.Interval
	// FoldContent mirrors UpdateRequest.Content for the fold leg.
	FoldContent *big.Int
	// HasReport gates the ReportSolution leg.
	HasReport bool
	Cost      int64
	Path      []int
	// WantWork gates the RequestWork leg, skipped when the fold leg
	// already learned the resolution is finished.
	WantWork bool
}

// BatchReply carries the verdicts of every leg the request enabled.
type BatchReply struct {
	// HasFold mirrors the request: Finished/Known/Interval are the
	// UpdateReply verdict for the fold leg.
	HasFold  bool
	Finished bool
	Known    bool
	Interval interval.Interval
	// HasWork mirrors WantWork: Status/IntervalID/WorkInterval/Duplicated
	// are the WorkReply for the refill leg.
	HasWork      bool
	Status       WorkStatus
	IntervalID   int64
	WorkInterval interval.Interval
	Duplicated   bool
	// BestCost is the global best after every leg ran (each leg also
	// reports it; the last one wins, and they are monotone anyway).
	BestCost int64
	// Hint mirrors UpdateReply.Hint for the fold leg (optional, may be
	// nil).
	Hint *StealHint
}

// BatchCoordinator is the optional coalescing extension of Coordinator.
// The RPC transport implements it end to end; in-process coordinators need
// not bother, because a batch over a function call saves nothing — Exchange
// decomposes it for them.
type BatchCoordinator interface {
	// Exchange runs report, fold, and refill — whichever the request
	// enables, in that order — in one round-trip.
	Exchange(req BatchRequest) (BatchReply, error)
}

// Exchange runs one batch against any coordinator: a BatchCoordinator gets
// it in one round-trip, any other Coordinator gets the legs as separate
// calls — which is also how the RPC server executes a batch it received.
// Leg order is report, fold, refill, and a fold that learns the resolution
// is finished suppresses the refill. A failing leg fails the batch with the
// earlier legs delivered; every leg is retry-safe, so the caller just
// resends the whole batch.
func Exchange(coord Coordinator, req BatchRequest) (BatchReply, error) {
	if bc, ok := coord.(BatchCoordinator); ok {
		return bc.Exchange(req)
	}
	var reply BatchReply
	if req.HasReport {
		ack, err := coord.ReportSolution(SolutionReport{
			Worker: req.Worker, Cost: req.Cost, Path: req.Path,
		})
		if err != nil {
			return reply, err
		}
		reply.BestCost = ack.BestCost
	}
	if req.HasFold {
		ur, err := coord.UpdateInterval(UpdateRequest{
			Worker:        req.Worker,
			IntervalID:    req.FoldID,
			Remaining:     req.Remaining,
			Power:         req.Power,
			ExploredDelta: req.ExploredDelta,
			PrunedDelta:   req.PrunedDelta,
			LeavesDelta:   req.LeavesDelta,
			HasGap:        req.HasFoldGap,
			Gap:           req.FoldGap,
			Content:       req.FoldContent,
		})
		if err != nil {
			return reply, err
		}
		reply.HasFold = true
		reply.Finished = ur.Finished
		reply.Known = ur.Known
		reply.Interval = ur.Interval
		reply.BestCost = ur.BestCost
		reply.Hint = ur.Hint
	}
	if req.WantWork && !reply.Finished {
		wr, err := coord.RequestWork(WorkRequest{Worker: req.Worker, Power: req.Power})
		if err != nil {
			return reply, err
		}
		reply.HasWork = true
		reply.Status = wr.Status
		reply.IntervalID = wr.IntervalID
		reply.WorkInterval = wr.Interval
		reply.Duplicated = wr.Duplicated
		reply.BestCost = wr.BestCost
		if wr.Status == WorkFinished {
			reply.Finished = true
		}
	}
	return reply, nil
}

// Coordinator is the farmer-side API workers pull on. Implementations must
// be safe for concurrent use by many workers.
type Coordinator interface {
	// RequestWork implements the load-balancing entry point (§4.2).
	RequestWork(req WorkRequest) (WorkReply, error)
	// UpdateInterval implements the worker-side checkpoint (§4.1) and
	// the lazy propagation of partitioning decisions.
	UpdateInterval(req UpdateRequest) (UpdateReply, error)
	// ReportSolution implements immediate solution sharing (§4.4).
	ReportSolution(req SolutionReport) (SolutionAck, error)
}
