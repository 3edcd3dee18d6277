// Package farmer implements the coordinator of the paper's farmer–worker
// architecture (§4): it owns INTERVALS (the copies of all not-yet-explored
// intervals) and SOLUTION (the global best), serves the pull-model worker
// protocol of internal/transport, and realizes the four mechanisms the
// paper builds on the interval coding — load balancing (selection +
// partitioning operators, §4.2), fault tolerance (intersection updates and
// two-file checkpoints, §4.1), implicit termination detection (INTERVALS
// empty, §4.3) and solution sharing (§4.4).
package farmer

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/interval"
	"repro/internal/transport"
)

// Counters aggregates the farmer-observable statistics of the paper's
// Table 2. Times and exploitation rates are owned by the runtime driving
// the farmer (real clock or discrete-event simulator).
type Counters struct {
	// WorkRequests counts all RequestWork calls, whatever the reply.
	WorkRequests int64
	// WorkAllocations counts RequestWork calls answered with an interval
	// ("Work allocations" row, 129,958 in the paper).
	WorkAllocations int64
	// WorkerCheckpoints counts UpdateInterval calls: every one is a
	// worker-side checkpoint ("Checkpoint operations" row, 4,094,176).
	WorkerCheckpoints int64
	// FarmerCheckpoints counts coordinator file snapshots (every 30
	// minutes in the paper).
	FarmerCheckpoints int64
	// SolutionReports and SolutionImprovements count ReportSolution
	// calls and the ones that improved SOLUTION.
	SolutionReports, SolutionImprovements int64
	// ExploredNodes, PrunedNodes, EvaluatedLeaves accumulate the deltas
	// workers attach to updates ("Explored nodes" row, 6.5e12).
	ExploredNodes, PrunedNodes, EvaluatedLeaves int64
	// Duplications counts threshold-triggered interval duplications, the
	// paper's source of redundant exploration.
	Duplications int64
	// EndgameDuplications counts the subset of Duplications triggered by
	// the endgame rule (withEndgameThreshold): the tracked total, not the
	// chosen interval, fell under a threshold, so the crumb was shared
	// across subtrees instead of split (DESIGN.md §12).
	EndgameDuplications int64
	// GapCarves counts vouched explored gaps materialized as cuts: an
	// edge-clamped gap trimmed off a copy at fold time, or an interior
	// gap the partitioning operator split at — the requester took the
	// live upper fragment and the explored hole left INTERVALS entirely.
	// Each carve moves the tracked total closer to the truly-unexplored
	// total (DESIGN.md §12).
	GapCarves int64
	// Expiry counts owners dropped by the lease mechanism (worker
	// failures, real or presumed).
	ExpiredOwners int64
	// HandedOffOrphans counts orphaned intervals given to new workers.
	HandedOffOrphans int64
	// RecoveredTails counts tail regions carved back into INTERVALS when
	// a worker re-registered a remainder shorter than the coordinator's
	// copy — which only happens when the copy is stale, i.e. restored
	// from a checkpoint that predates a partition (farmer restart, §4.1).
	RecoveredTails int64
	// RejectedPowers counts work requests refused for a non-positive
	// power claim; IgnoredPowers counts non-positive power claims on
	// interval updates, which are processed but do not refresh the
	// speed estimate (the checkpoint is too valuable to reject);
	// ClampedPowers counts claims capped at MaxPower in either
	// direction. Together they are the coordinator-boundary hardening
	// against workers (or sub-farmers) reporting garbage speeds that
	// would skew the proportional partitioning operator for the whole
	// grid.
	RejectedPowers, IgnoredPowers, ClampedPowers int64
	// RejectedIntervals counts UpdateInterval requests refused at the
	// boundary (out-of-root or oversize intervals, negative progress
	// deltas, oversize worker ids); RejectedReports counts ReportSolution
	// requests refused there (oversize or negative-rank paths, oversize
	// worker ids). Rejected messages mutate nothing beyond these
	// counters.
	RejectedIntervals, RejectedReports int64
	// OversizeMessages counts boundary rejections whose cause was a size
	// bound specifically (interval bit length, path length, worker id
	// length) — the fields gob decodes at attacker-chosen sizes within
	// the transport's whole-message byte budget. It overlaps the two
	// rejection counters above: an oversize update charges both.
	OversizeMessages int64
	// CorruptSnapshots and FallbackLoads mirror the checkpoint store's
	// self-healing counters (checkpoint.Stats): snapshot files found
	// corrupt and quarantined, and loads served from the previous
	// generation. Zero when no store is attached. A nonzero fallback
	// means the last restore cost up to one checkpoint period of rework;
	// a corruption with no fallback left surfaces as a Restore error,
	// never as silent state.
	CorruptSnapshots, FallbackLoads int64
}

// RedundancyStats measures duplicated work in leaf-number units, the
// currency of the interval coding. The paper reports node-level redundancy
// (0.39 %); leaf units are the farmer-observable proxy — see DESIGN.md.
type RedundancyStats struct {
	// ConsumedUnits is the total leaf-number progress reported by all
	// workers.
	ConsumedUnits *big.Int
	// RedundantUnits is the progress reported over regions some other
	// worker had already covered (duplicated intervals, restarts).
	RedundantUnits *big.Int
}

// Rate returns RedundantUnits/ConsumedUnits, or 0 when nothing was
// consumed.
func (r RedundancyStats) Rate() float64 {
	if r.ConsumedUnits == nil || r.ConsumedUnits.Sign() == 0 {
		return 0
	}
	num := new(big.Float).SetInt(r.RedundantUnits)
	den := new(big.Float).SetInt(r.ConsumedUnits)
	v, _ := new(big.Float).Quo(num, den).Float64()
	return v
}

// owner is a worker currently exploring (a copy of) a tracked interval.
type owner struct {
	power    int64
	lastSeen int64    // clock nanoseconds
	lastA    *big.Int // last reported beginning, for redundancy accounting
}

// tracked is one INTERVALS entry with its exploration metadata.
type tracked struct {
	id        int64
	iv        interval.Interval
	owners    map[transport.WorkerID]*owner
	coveredTo *big.Int // high watermark of reported beginnings

	// power is the holder power: the sum of the owners' powers, the
	// partitioning operator's holder share and the selection index's class
	// key. setOwner, dropOwner and UpdateInterval's one power update keep
	// it, so reading it is O(1) however many workers share the copy.
	power int64

	// gapA/gapB, when non-nil, bound the largest fully-explored hole
	// strictly interior to iv that the holder vouched for in a gap-carving
	// fold (DESIGN.md §12). The gap is advisory metadata, not a cut: the
	// holder keeps working both sides, and the hole only materializes when
	// the partitioning operator next splits this entry — at the gap, so
	// the donated part is real work and the explored padding between the
	// fragments leaves INTERVALS entirely.
	gapA, gapB *big.Int

	// content, when non-nil, is the holder's own count of unexplored
	// ground behind this copy (a content-honest fold): a sub-farmer's hull
	// can overstate its fragmented table by orders of magnitude, and the
	// true total keeps size accounting honest. Advisory like the gap; it
	// never moves work by itself.
	content *big.Int

	// slack caches this entry's contribution to f.slack: hull length
	// minus vouched content, floored by the stored gap length (nil when
	// zero). reslackLocked keeps it and the aggregate in sync after every
	// change to iv, gapA/gapB, or content.
	slack *big.Int

	// Selection-index key cache (see index.go): the length and holder
	// power this entry is currently filed under. Only the index touches
	// these; they may lag iv/owners between a mutation and its fix.
	idxLen *big.Int
	idxHP  int64
}

// setOwner makes o w's ownership of t, replacing any earlier one.
func (t *tracked) setOwner(w transport.WorkerID, o *owner) {
	if old := t.owners[w]; old != nil {
		t.power -= old.power
	}
	t.owners[w] = o
	t.power += o.power
}

// dropOwner ends w's ownership of t, if any.
func (t *tracked) dropOwner(w transport.WorkerID) {
	if o := t.owners[w]; o != nil {
		t.power -= o.power
		delete(t.owners, w)
	}
}

// Farmer is the coordinator. It is a monitor: every operation takes the
// single mutex, which is realistic — the paper's farmer is one process and
// its low exploitation rate (1.7 %) is precisely the scalability claim the
// interval coding enables.
type Farmer struct {
	mu sync.Mutex

	// ckptMu serializes Checkpoint callers end to end. The snapshot is
	// taken under mu but written outside it (a slow disk must not block
	// the workers); without this second lock two concurrent checkpoints
	// — the periodic ticker racing a final snapshot — could interleave
	// writes to the same temp file, or rename an older snapshot over a
	// newer one.
	ckptMu sync.Mutex

	intervals map[int64]*tracked
	// idx answers the selection operator in O(groups·log W) and keeps the
	// INTERVALS length total incrementally; lease schedules owner expiry
	// on a deadline min-heap so the request path pays one peek instead of
	// a full owner sweep; empties lists the (rare) intervals born empty by
	// the partitioning operator, drained where the seed re-scanned the
	// whole table. See index.go and DESIGN.md §8.
	idx     *selIndex
	lease   lazyHeap[leaseEntry]
	empties []int64
	// Interval ids are epoch-qualified: id = epoch<<epochShift | seq.
	// The epoch is bumped on every restore from checkpoint, so an id
	// allocated after the snapshot was taken (and therefore lost in the
	// crash) can never be re-issued to a different interval — a late
	// update from its pre-crash owner is recognizably stale instead of
	// silently intersecting an unrelated interval.
	epoch  int64
	nextID int64

	bestCost int64
	bestPath []int

	threshold  *big.Int
	clock      func() int64
	leaseTTL   int64
	store      *checkpoint.Store
	equalSplit bool

	// hints makes fold replies carry a StealHint (withStealHints);
	// endgame, when non-nil, is the tracked-total threshold under which
	// the partitioning operator duplicates instead of splitting even
	// above the per-interval threshold (withEndgameThreshold). Both are
	// tree-root features; flat farmers leave them off.
	hints   bool
	endgame *big.Int

	// front, when frontier tracking is enabled, is a lazy min-heap over
	// the beginnings of all tracked intervals: its valid top is the fold
	// frontier a sub-farmer reports upstream (min A over INTERVALS). Flat
	// farmers never read it, so they never pay for it either — pushes are
	// gated on trackFront.
	front      lazyHeap[frontierEntry]
	trackFront bool

	// rootLo/rootHi are the root range the boundary pins inbound
	// intervals inside (boundary.go). Nil when the farmer was created
	// over an empty root (a sub-farmer's inner table, which grows by
	// upstream grants): then only structural checks apply.
	rootLo, rootHi *big.Int

	counters   Counters
	redundancy RedundancyStats

	// busyNanos accumulates time spent inside farmer operations, the
	// numerator of the farmer exploitation rate. The runtime measures it
	// with the same clock it measures wall time with.
	busyNanos int64

	// slack is the sum of all per-entry slacks: ground inside INTERVALS
	// hulls that holders vouched is explored, via gap-carving folds and
	// content-honest folds. Honest totals (Size, endgame, steal hints)
	// subtract it; reslackLocked keeps it current.
	slack *big.Int

	// Scratch big.Ints reused across protocol calls (guarded by mu), so
	// the steady-state message loop — one UpdateInterval per worker
	// checkpoint — does not allocate per call.
	scrA, scrLen, scrMul, scrHint, scrGap *big.Int
}

// Option customizes a Farmer.
type Option func(*Farmer)

// WithThreshold sets the minimum length below which the partitioning
// operator duplicates instead of splitting (§4.2: "An interval which has a
// length lower than this threshold is duplicated instead of being
// divided"). The default is 2.
func WithThreshold(t *big.Int) Option {
	return func(f *Farmer) { f.threshold = new(big.Int).Set(t) }
}

// WithClock injects a nanosecond clock; the discrete-event simulator uses a
// virtual one. The default is the wall clock.
func WithClock(clock func() int64) Option {
	return func(f *Farmer) { f.clock = clock }
}

// WithLeaseTTL sets how long a worker may stay silent before it is presumed
// dead and its interval orphaned (§4.1 worker failures). Zero disables
// expiry. The default is one minute.
func WithLeaseTTL(d time.Duration) Option {
	return func(f *Farmer) { f.leaseTTL = int64(d) }
}

// WithCheckpointStore attaches the two-file persistent store of §4.1.
func WithCheckpointStore(store *checkpoint.Store) Option {
	return func(f *Farmer) { f.store = store }
}

// WithEqualSplit makes the partitioning operator ignore the holder's and
// requester's powers and always split in the middle. It exists for the
// ablation study of the paper's proportional rule (§4.2) — on heterogeneous
// pools equal splits leave fast hosts starving while slow hosts sit on huge
// intervals.
func WithEqualSplit(equal bool) Option {
	return func(f *Farmer) { f.equalSplit = equal }
}

// WithFrontierTracking makes the farmer maintain the lazy frontier heap so
// Frontier (the fold a sub-farmer reports upstream) is O(log W) amortized.
// Off by default: a flat farmer never folds, and the heap would otherwise
// grow with every allocation for nothing.
func WithFrontierTracking() Option {
	return func(f *Farmer) { f.trackFront = true }
}

// withStealHints makes every fold reply carry a transport.StealHint — a
// summary of the work the farmer still tracks beyond the updated copy —
// so a draining sub-farmer can refill before its table runs dry
// (DESIGN.md §12). Off by default: the hint is only meaningful from a
// tree root to its sub-farmers, and NewTree arms it under
// TreeConfig.Endgame.
func withStealHints() Option {
	return func(f *Farmer) { f.hints = true }
}

// withEndgameThreshold arms the endgame duplication rule: when the total
// tracked length falls under t, the partitioning operator duplicates
// actively-held intervals instead of splitting them — the paper's §4.2
// minimum-size rule lifted from one interval to the whole table. At that
// point every split would mint crumbs anyway; sharing the survivors across
// subtrees restores the global mixing a pull-only tree loses at the end of
// a resolution. Off (nil) by default.
func withEndgameThreshold(t *big.Int) Option {
	return func(f *Farmer) { f.endgame = new(big.Int).Set(t) }
}

// The endgame thresholds as multiples of the duplication threshold. The
// duplication threshold is leaf-units scale (a handful of tree nodes),
// while the endgame is governed by fleet-scale quantities: the root must
// start duplicating the survivors while there is still enough tail left
// for every subtree's fleet to chew in parallel, and a starving subtree
// needs several cadences of fleet throughput pre-fetched to stay busy
// across the refill round trip.
const (
	endgameFactor  = 64
	lowWaterFactor = 1024
	// innerFanoutFactor scales an inner farmer's no-split threshold down
	// with the tree's fan-out: it serves a fleet 1/subtrees the size of
	// the grid over a table that is itself a slice of the root's, and
	// duplicating a root-scale crumb (thousands of unit-dense deep
	// leaves) to every idle worker of a subtree is the dominant
	// redundancy of tree mode.
	innerFanoutFactor = 8
)

// endgameThresholds derives the crumb-endgame configuration of a farmer
// tree (DESIGN.md §12) from the root's duplication threshold thr and the
// number of sub-farmers: the root's withEndgameThreshold value, the
// sub-farmers' SubConfig.LowWater mark, and the WithThreshold value of
// their inner farmers (at least 1). NewTree applies them under
// TreeConfig.Endgame.
func endgameThresholds(thr *big.Int, subtrees int) (endgame, lowWater, inner *big.Int) {
	endgame = new(big.Int).Mul(thr, big.NewInt(endgameFactor))
	lowWater = new(big.Int).Mul(thr, big.NewInt(lowWaterFactor))
	inner = new(big.Int).Div(thr, big.NewInt(int64(subtrees)*innerFanoutFactor))
	if inner.Sign() <= 0 {
		inner = big.NewInt(1)
	}
	return endgame, lowWater, inner
}

// defaultThreshold is the duplication threshold of a farmer built with
// no WithThreshold option.
const defaultThreshold = 2

// WithInitialBest primes SOLUTION with an externally known solution — the
// paper initializes its Ta056 runs with the best known makespans 3681 and
// 3680 (§5.3). The path may be nil when only the cost is known.
func WithInitialBest(cost int64, path []int) Option {
	return func(f *Farmer) {
		f.bestCost = cost
		if path != nil {
			f.bestPath = append([]int(nil), path...)
		}
	}
}

// New creates a farmer whose INTERVALS is initialized with the root
// interval of the search tree (§4.3: "INTERVALS is initialized by the range
// of the root node").
func New(root interval.Interval, opts ...Option) *Farmer {
	f := &Farmer{
		intervals: make(map[int64]*tracked),
		idx:       newSelIndex(),
		bestCost:  bb.Infinity,
		threshold: big.NewInt(defaultThreshold),
		clock:     func() int64 { return time.Now().UnixNano() },
		leaseTTL:  int64(time.Minute),
		slack:     new(big.Int),
		scrA:      new(big.Int),
		scrLen:    new(big.Int),
		scrMul:    new(big.Int),
		scrHint:   new(big.Int),
		scrGap:    new(big.Int),
	}
	for _, opt := range opts {
		opt(f)
	}
	f.redundancy = RedundancyStats{ConsumedUnits: new(big.Int), RedundantUnits: new(big.Int)}
	if !root.IsEmpty() {
		f.rootLo, f.rootHi = root.A(), root.B()
		f.addTracked(root.Clone())
	}
	return f
}

// Restore creates a farmer from the latest checkpoint in store, falling
// back to a fresh one over root if no checkpoint exists (first start).
func Restore(root interval.Interval, store *checkpoint.Store, opts ...Option) (*Farmer, error) {
	opts = append(opts, WithCheckpointStore(store))
	if !store.Exists() {
		return New(root, opts...), nil
	}
	snap, err := store.Load()
	if err != nil {
		return nil, err
	}
	f := New(interval.Interval{}, opts...)
	f.mu.Lock()
	defer f.mu.Unlock()
	if !root.IsEmpty() {
		// The restored table must honour the same boundary as a fresh
		// one: the root range is a property of the instance, not of the
		// snapshot.
		f.rootLo, f.rootHi = root.A(), root.B()
	}
	// A fresh epoch: every id allocated by this incarnation is distinct
	// from every id any previous incarnation ever issued, including the
	// ones issued after the snapshot (which the snapshot cannot know).
	f.epoch = snap.Epoch + 1
	f.nextID = 0
	for _, rec := range snap.Intervals {
		if rec.Interval.IsEmpty() {
			continue
		}
		t := &tracked{
			id:        rec.ID,
			iv:        rec.Interval.Clone(),
			owners:    make(map[transport.WorkerID]*owner),
			coveredTo: rec.Interval.A(),
		}
		f.intervals[rec.ID] = t
		f.idx.insert(t)
		f.pushFrontier(t)
	}
	f.bestCost = snap.BestCost
	f.bestPath = snap.BestPath
	return f, nil
}

// epochShift positions the restore epoch in the high bits of interval ids;
// 2^40 allocations per incarnation and 2^23 restarts are both out of reach.
const epochShift = 40

// addTracked registers a new orphan interval and returns it. Caller holds
// no lock (construction) or the lock (runtime paths handle locking).
func (f *Farmer) addTracked(iv interval.Interval) *tracked {
	return f.addTrackedFor(iv, "", nil)
}

// addTrackedFor registers a new interval already owned by w (the donated
// part of a split), so the index files it under its owner's power class in
// one insert instead of an orphan insert plus a re-key. A nil owner
// registers an orphan. The entry takes iv over: callers pass bounds nobody
// else holds.
func (f *Farmer) addTrackedFor(iv interval.Interval, w transport.WorkerID, o *owner) *tracked {
	t := &tracked{
		id:        f.epoch<<epochShift | f.nextID,
		iv:        iv,
		owners:    make(map[transport.WorkerID]*owner),
		coveredTo: iv.A(),
	}
	if o != nil {
		t.setOwner(w, o)
	}
	f.nextID++
	f.intervals[t.id] = t
	f.idx.insert(t)
	f.pushFrontier(t)
	if o != nil {
		f.pushLease(t, w, o)
	}
	if t.iv.IsEmpty() {
		// Only the partitioning operator can mint an empty entry (a
		// zero-power requester's donated part); remember it for the next
		// cleanLocked, which the seed answered with a full-table scan.
		f.empties = append(f.empties, t.id)
	}
	return t
}

// expireLocked drops owners that have been silent longer than the lease.
// Their intervals remain in INTERVALS as orphans: "the last copy of its
// interval is either entirely given to another B&B process, or shared
// between several B&B processes" (§4.1) — both happen through the normal
// allocation path afterwards.
// The sweep runs off the lease heap: the top deadline is the next-expiry
// watermark, so the common case — nobody near expiry — is one comparison
// instead of the seed's O(W·owners) scan per request. Entries are lazy: an
// owner that reported since its entry was pushed is re-pushed at its newer
// deadline; an owner dropped, replaced or retired with its interval is
// detected by pointer identity and discarded.
func (f *Farmer) expireLocked(now int64) {
	if f.leaseTTL <= 0 {
		return
	}
	for len(f.lease.s) > 0 && f.lease.s[0].deadline < now {
		e := f.lease.pop()
		if !f.leaseLive(e) {
			continue // interval retired, or owner dropped or replaced: stale entry
		}
		if now-e.o.lastSeen > f.leaseTTL {
			e.t.dropOwner(e.w)
			f.counters.ExpiredOwners++
			f.idx.fix(e.t) // the holder-power class changed
		} else {
			f.pushLease(e.t, e.w, e.o) // reported since: re-arm
		}
	}
}

// cleanLocked removes empty intervals (§4.3: "Any empty interval of
// INTERVALS is automatically removed"). Every runtime mutation point
// retires an interval the moment it empties; the only entries that reach
// this sweep are the ones born empty at the partitioning operator, listed
// in f.empties — so the seed's full-table scan is now O(#empties), almost
// always zero.
func (f *Farmer) cleanLocked() {
	if len(f.empties) == 0 {
		return
	}
	for _, id := range f.empties {
		if t, ok := f.intervals[id]; ok && t.iv.IsEmpty() {
			f.idx.remove(t)
			delete(f.intervals, id)
		}
	}
	f.empties = f.empties[:0]
}

// MaxPower caps the exploration speed a coordinator believes (nodes per
// second, in whatever fixed-point scale the deployment uses). The paper's
// fastest hosts explored a few million nodes per second; 2^40 leaves three
// orders of magnitude of headroom for fixed-point scaling and fleet-power
// sums while keeping a hostile claim from monopolizing the partitioning
// operator (a 2^63 power would make every split donate essentially the
// whole interval to the liar).
const MaxPower = int64(1) << 40

// clampPower caps a positive power claim at MaxPower, counting the clamp.
// Callers reject or ignore non-positive claims before calling.
func (f *Farmer) clampPower(p int64) int64 {
	if p > MaxPower {
		f.counters.ClampedPowers++
		return MaxPower
	}
	return p
}

// RequestWork implements transport.Coordinator: the selection and
// partitioning operators of §4.2.
func (f *Farmer) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock()
	defer f.accountBusy(now)
	f.counters.WorkRequests++
	if reason := f.vetWorkerLocked(req.Worker); reason != "" {
		return transport.WorkReply{}, fmt.Errorf("farmer: rejected request from %q: %s", truncID(req.Worker), reason)
	}
	f.expireLocked(now)
	f.cleanLocked()
	if len(f.intervals) == 0 {
		return transport.WorkReply{Status: transport.WorkFinished, BestCost: f.bestCost}, nil
	}
	if req.Power <= 0 {
		// The partitioning operator splits proportionally to powers; a
		// zero or negative claim is either a broken worker or an attempt
		// to game the split. Reject at the boundary (§4.2 hardening).
		f.counters.RejectedPowers++
		return transport.WorkReply{}, fmt.Errorf("farmer: non-positive power %d from %q", req.Power, req.Worker)
	}
	req.Power = f.clampPower(req.Power)

	// Selection operator: pick the interval producing the greatest
	// donated part [C,B) given the requester's power (§4.2: "The
	// selection operator does not choose the greatest interval [A,B[ of
	// INTERVALS, but the one which produces the greatest possible
	// interval [C,B["). The index answers in O(classes·log W) with
	// decisions byte-identical to the seed linear scan (index.go; the
	// oracle test pins the equivalence).
	chosenID, ok := f.idx.selectBest(req.Power)
	if !ok {
		return transport.WorkReply{}, fmt.Errorf("farmer: selection index empty with %d tracked intervals", len(f.intervals))
	}
	chosen := f.intervals[chosenID]

	reply := transport.WorkReply{Status: transport.WorkAssigned, BestCost: f.bestCost}
	if chosen.owners[req.Worker] != nil {
		// The requester already co-owns the chosen copy (an earlier
		// duplication, or its own abandoned interval after a lease
		// blip). Splitting or gap-carving it would mint a NEW id over
		// ground the requester's local table already covers — one tier
		// down that surfaces as overlapping INTERVALS entries and the
		// same fleet exploring the same ground twice. Hand the same
		// copy back instead: the requester recognizes the id and
		// adopts the authoritative bounds without injecting (§4.2: one
		// copy per duplicated interval).
		return f.shareLocked(chosen, req, now), nil
	}
	if nt, ok := f.splitAtGapLocked(chosen, req.Worker, req.Power, now); ok {
		reply.IntervalID = nt.id
		reply.Interval = nt.iv.Clone()
		return reply, nil
	}
	holderPower := chosen.power
	belowThreshold := chosen.iv.LenInto(f.scrLen).Cmp(f.threshold) < 0
	// Endgame rule (withEndgameThreshold): once the TOTAL tracked length
	// is crumb-scale, splitting only mints smaller crumbs — share held
	// intervals across requesters instead (DESIGN.md §12). Orphans
	// (holderPower == 0) still hand off whole below.
	endgame := !belowThreshold && f.endgame != nil &&
		f.scrMul.Sub(f.idx.total, f.slack).Cmp(f.endgame) < 0
	if (belowThreshold || endgame) && holderPower > 0 {
		// Partitioning operator, duplication rule: the interval is
		// below the threshold and actively explored — share it rather
		// than splitting crumbs. "The coordinator keeps only one copy
		// of a duplicated interval, even if it is assigned to several
		// processes" (§4.2).
		if endgame {
			f.counters.EndgameDuplications++
		}
		return f.shareLocked(chosen, req, now), nil
	}

	splitHolderPower, splitReqPower := holderPower, req.Power
	if f.equalSplit && holderPower > 0 && req.Power > 0 {
		splitHolderPower, splitReqPower = 1, 1
	}
	// The split runs in place: the entry keeps [A,C), and the donated
	// [C,B) takes over its old end and becomes the new entry's own.
	donated := chosen.iv.SplitProportionalInPlace(splitHolderPower, splitReqPower, f.scrA)
	if holderPower == 0 {
		f.counters.HandedOffOrphans++
	}
	if chosen.iv.IsEmpty() {
		// Whole interval handed over (orphans: the virtual null-power
		// process rule). Retire the old copy; the new owner gets a
		// fresh id so any late update from a presumed-dead previous
		// owner is recognizably stale.
		f.forgetSlackLocked(chosen)
		f.idx.remove(chosen)
		delete(f.intervals, chosen.id)
	} else {
		chosen.content = nil // the split invalidates the vouched count
		f.reslackLocked(chosen)
		f.idx.fix(chosen) // the kept part is shorter: re-key
		// The holder keeps exploring [A,C) and learns of the shrink
		// at its next update (§4.2: "After a certain time, the holder
		// process is also informed to limit its exploration").
	}
	nt := f.addTrackedFor(donated, req.Worker,
		&owner{power: req.Power, lastSeen: now, lastA: donated.A()})
	f.counters.WorkAllocations++
	reply.IntervalID = nt.id
	reply.Interval = donated.Clone()
	return reply, nil
}

// shareLocked is the duplication rule's grant: the requester becomes a
// co-owner of t's one copy and gets it back flagged Duplicated.
func (f *Farmer) shareLocked(t *tracked, req transport.WorkRequest, now int64) transport.WorkReply {
	o := &owner{power: req.Power, lastSeen: now, lastA: t.iv.A()}
	t.setOwner(req.Worker, o)
	f.idx.fix(t) // the holder-power class may have changed
	f.pushLease(t, req.Worker, o)
	f.counters.Duplications++
	f.counters.WorkAllocations++
	return transport.WorkReply{Status: transport.WorkAssigned, BestCost: f.bestCost,
		IntervalID: t.id, Interval: t.iv.Clone(), Duplicated: true}
}

// splitAtGapLocked is the partitioning operator's gap-aware cut
// (DESIGN.md §12): when the chosen entry carries a vouched explored gap,
// split THERE instead of proportionally. The holder keeps the fragment
// below the gap, the requester gets the fragment above it, and the
// explored padding in between leaves INTERVALS entirely — the cut lands
// on ground nobody needs to re-explore, where a proportional midpoint
// would land inside the padding and grant mostly-explored work. This
// also pre-empts the duplication rule: sharing a gapped hull would make
// the second worker re-walk the vouched-explored hole, while the gap
// split hands it live work. Returns ok=false (after dropping any
// invalid gap) when the entry carries no usable gap.
func (f *Farmer) splitAtGapLocked(t *tracked, w transport.WorkerID, power int64, now int64) (*tracked, bool) {
	if t.gapA == nil {
		return nil, false
	}
	if t.iv.CmpA(t.gapA) >= 0 || t.iv.CmpB(t.gapB) <= 0 {
		// The entry shrank since the gap was stored (defensive — every
		// shrink revalidates); a gap no longer strictly interior cannot
		// anchor a two-sided cut.
		f.clearGapLocked(t)
		return nil, false
	}
	donated := interval.New(t.gapB, t.iv.B())
	t.iv.IntersectInPlace(interval.New(t.iv.A(), t.gapA))
	if t.coveredTo.Cmp(t.gapA) > 0 {
		t.coveredTo.Set(t.gapA)
	}
	// The holder's vouched content spanned the whole hull; neither
	// fragment knows its share, so the kept copy falls back to hull
	// semantics until the next fold re-reports.
	t.content = nil
	f.clearGapLocked(t)
	f.idx.fix(t)
	nt := f.addTrackedFor(donated, w,
		&owner{power: power, lastSeen: now, lastA: donated.A()})
	f.counters.GapCarves++
	f.counters.WorkAllocations++
	return nt, true
}

// UpdateInterval implements transport.Coordinator: the intersection
// operator (eq. 14) plus progress and redundancy accounting.
func (f *Farmer) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock()
	defer f.accountBusy(now)
	// Boundary validation runs before anything — counter accumulation
	// included — so a rejected update leaves no trace beyond the
	// rejection counters (boundary.go).
	if reason := f.vetUpdateLocked(req); reason != "" {
		f.counters.RejectedIntervals++
		return transport.UpdateReply{}, fmt.Errorf("farmer: rejected update from %q: %s", truncID(req.Worker), reason)
	}
	f.counters.WorkerCheckpoints++
	f.counters.ExploredNodes += req.ExploredDelta
	f.counters.PrunedNodes += req.PrunedDelta
	f.counters.EvaluatedLeaves += req.LeavesDelta

	t, ok := f.intervals[req.IntervalID]
	if !ok {
		// Completed or reassigned after presumed death: the worker
		// should drop its copy and request fresh work.
		f.cleanLocked()
		return transport.UpdateReply{
			Known:    false,
			Finished: len(f.intervals) == 0,
			BestCost: f.bestCost,
			Hint:     f.stealHintLocked(req.IntervalID),
		}, nil
	}
	// Boundary hardening: a non-positive power claim never overwrites the
	// last credible estimate (re-admissions fall back to 1), and absurd
	// claims are clamped at MaxPower — same rules as RequestWork, except
	// an update is never rejected outright: losing the checkpoint would
	// hurt the honest majority more than the one liar.
	power := req.Power
	if power <= 0 {
		f.counters.IgnoredPowers++
		power = 0
	} else {
		power = f.clampPower(power)
	}
	o, isOwner := t.owners[req.Worker]
	if !isOwner {
		// A lease-expired owner resurfaced while its interval still
		// exists (it was shared, not handed off). Re-admit it: it is
		// evidently alive, and the paper explicitly allows an
		// interval to be "shared between several B&B processes".
		// The holder-power change is picked up by the single index fix
		// at the end of the update.
		admitted := power
		if admitted <= 0 {
			admitted = 1
		}
		o = &owner{power: admitted, lastSeen: now, lastA: t.iv.A()}
		t.setOwner(req.Worker, o)
		f.pushLease(t, req.Worker, o)
	}
	o.lastSeen = now
	if power > 0 {
		t.power += power - o.power
		o.power = power
	}

	// Redundancy accounting in leaf units: progress over a region some
	// other owner had already reported is redundant. All arithmetic runs
	// on the farmer's scratch and the tracked entries' own big.Ints: a
	// checkpoint round allocates nothing here.
	reportedA := req.Remaining.AInto(f.scrA)
	if reportedA.Cmp(o.lastA) > 0 {
		consumed := f.scrLen.Sub(reportedA, o.lastA)
		f.redundancy.ConsumedUnits.Add(f.redundancy.ConsumedUnits, consumed)
		if o.lastA.Cmp(t.coveredTo) < 0 {
			overlapEnd := reportedA
			if t.coveredTo.Cmp(overlapEnd) < 0 {
				overlapEnd = t.coveredTo
			}
			redundant := f.scrLen.Sub(overlapEnd, o.lastA)
			f.redundancy.RedundantUnits.Add(f.redundancy.RedundantUnits, redundant)
		}
		if reportedA.Cmp(t.coveredTo) > 0 {
			t.coveredTo.Set(reportedA)
		}
		o.lastA.Set(reportedA)
	}

	// Stale-copy reconciliation (farmer restart, §4.1). In normal
	// operation a worker's remaining end never falls short of the
	// coordinator's copy: the worker's end bound only ever shrinks
	// through replies this coordinator issued. A shorter end therefore
	// means the copy is stale — restored from a snapshot taken before a
	// partition whose donated tail lived on only in assignments the crash
	// orphaned. Blindly intersecting would discard that tail as if it had
	// been explored; instead it is carved back into INTERVALS as a fresh
	// orphan so the allocation path re-issues it.
	remB := req.Remaining.BInto(f.scrMul)
	if t.iv.CmpB(remB) > 0 {
		if t.iv.CmpA(remB) < 0 {
			f.addTracked(interval.New(remB, t.iv.B()))
			f.counters.RecoveredTails++
		} else {
			// The worker's whole view lies before the copy: it brings
			// no progress over this copy, and intersecting would
			// wrongly empty it. The worker cannot adopt the copy either
			// — its explorer only ever narrows (eq. 14), so a reply
			// carrying a disjoint interval would make it finish and
			// drop the work while this farmer kept it as a leased
			// owner, stalling recovery for a full lease TTL. Drop the
			// ownership and send the worker back for fresh work.
			t.dropOwner(req.Worker)
			f.idx.fix(t) // owner set (and maybe power) changed above
			f.cleanLocked()
			return transport.UpdateReply{
				Known:    false,
				BestCost: f.bestCost,
				Finished: len(f.intervals) == 0,
				Hint:     f.stealHintLocked(req.IntervalID),
			}, nil
		}
	}

	// Intersection operator (eq. 14): reconcile the worker's view with
	// the coordinator's copy in place. Only the reply's interval is a
	// fresh copy — it escapes to the worker.
	t.iv.IntersectInPlace(req.Remaining)
	if t.iv.IsEmpty() {
		f.forgetSlackLocked(t)
	} else {
		if req.Content != nil && req.Content.Sign() >= 0 {
			// Content-honest fold: adopt the holder's own count of
			// unexplored ground behind this hull (ownership transfers;
			// decoders and sub-farmers hand over a fresh value).
			t.content = req.Content
		}
		if req.HasGap {
			f.noteGapLocked(t, req.Gap)
		} else {
			f.revalidateGapLocked(t)
		}
		f.reslackLocked(t)
	}
	reply := transport.UpdateReply{Known: true, BestCost: f.bestCost, Interval: t.iv.Clone()}
	if t.iv.IsEmpty() {
		f.idx.remove(t)
		delete(f.intervals, t.id)
	} else {
		// One re-key covers everything this update changed: the
		// intersected length, a re-admitted owner, a power update.
		f.idx.fix(t)
	}
	f.cleanLocked()
	reply.Finished = len(f.intervals) == 0
	reply.Hint = f.stealHintLocked(req.IntervalID)
	return reply, nil
}

// noteGapLocked honours a fold's gap declaration (DESIGN.md §12): the
// reporter vouches that gap holds no unexplored ground. A sub-farmer's
// [C,B) hull fold overstates its fragmented table, and without gap
// knowledge every steal from that hull re-issues mostly-explored padding
// as if it were fresh work — the engine of the tree's redundant-
// exploration tail. Crucially the gap is NOT carved out here: both sides
// of the hole hold the reporter's live fragments, so an eager carve would
// evict live work on every fold and churn it around the tree. Instead the
// gap is remembered on the entry and materializes only when the
// partitioning operator next cuts it (splitAtGapLocked) — exactly when
// work was going to move anyway. Advisory and fail-safe: a dishonest gap
// costs exactly what a dishonest fold frontier already could, because the
// protocol trusts reporters about what they explored at every tier.
func (f *Farmer) noteGapLocked(t *tracked, gap interval.Interval) {
	if gap.IsEmpty() {
		return
	}
	f.applyGapLocked(t, gap.A(), gap.B())
}

// revalidateGapLocked re-clamps a stored gap after the entry's interval
// changed; a no-op for the (overwhelmingly common) gapless entry.
func (f *Farmer) revalidateGapLocked(t *tracked) {
	if t.gapA == nil {
		return
	}
	ga, gb := t.gapA, t.gapB
	t.gapA, t.gapB = nil, nil
	f.applyGapLocked(t, ga, gb)
}

// applyGapLocked reconciles a vouched explored gap with the entry's
// current bounds, taking ownership of ga/gb. A gap clamped to an edge of
// the copy is free precision — the explored prefix or suffix is trimmed
// off on the spot, no work moves, and the shrink reaches the holder
// through the ordinary reply verdict. Only a strictly interior remainder
// is stored for the partitioning operator.
func (f *Farmer) applyGapLocked(t *tracked, ga, gb *big.Int) {
	if t.iv.CmpA(ga) > 0 {
		ga.Set(t.iv.AInto(f.scrGap))
	}
	if t.iv.CmpB(gb) < 0 {
		gb.Set(t.iv.BInto(f.scrGap))
	}
	if ga.Cmp(gb) >= 0 {
		f.clearGapLocked(t)
		return
	}
	aEdge := t.iv.CmpA(ga) == 0
	bEdge := t.iv.CmpB(gb) == 0
	switch {
	case aEdge && bEdge:
		// The whole copy vouched explored: emptying it is the reply
		// path's decision, not this accounting helper's. Drop the gap and
		// leave the copy alone (defensive — no reporter vouches its own
		// whole hull, the gap floor forbids it).
		f.clearGapLocked(t)
	case aEdge:
		// Explored prefix: trim it off now.
		t.iv.IntersectInPlace(interval.New(gb, t.iv.B()))
		f.clearGapLocked(t)
		f.counters.GapCarves++
	case bEdge:
		// Explored suffix: trim, keeping the redundancy watermark inside
		// the shrunk bounds so overlap accounting stays conservative.
		t.iv.IntersectInPlace(interval.New(t.iv.A(), ga))
		if t.coveredTo.Cmp(ga) > 0 {
			t.coveredTo.Set(ga)
		}
		f.clearGapLocked(t)
		f.counters.GapCarves++
	default:
		f.setGapLocked(t, ga, gb)
	}
}

func (f *Farmer) setGapLocked(t *tracked, ga, gb *big.Int) {
	t.gapA, t.gapB = ga, gb
	f.reslackLocked(t)
}

func (f *Farmer) clearGapLocked(t *tracked) {
	if t.gapA == nil && t.slack == nil {
		return
	}
	t.gapA, t.gapB = nil, nil
	f.reslackLocked(t)
}

// reslackLocked recomputes the entry's slack — hull length minus vouched
// content, floored by the stored gap length, clamped to [0, hull] — and
// folds the change into the farmer-wide aggregate. Call it after any
// change to t.iv, t.gapA/gapB, or t.content; it is idempotent.
func (f *Farmer) reslackLocked(t *tracked) {
	if t.slack != nil {
		f.slack.Sub(f.slack, t.slack)
	}
	if t.content == nil && t.gapA == nil {
		t.slack = nil
		return
	}
	if t.slack == nil {
		t.slack = new(big.Int)
	}
	hull := t.iv.LenInto(f.scrGap)
	if t.content != nil {
		t.slack.Sub(hull, t.content)
		if t.slack.Sign() < 0 {
			t.slack.SetInt64(0)
		}
	} else {
		t.slack.SetInt64(0)
	}
	if t.gapA != nil {
		// The gap is positional evidence the content count must cover.
		if g := new(big.Int).Sub(t.gapB, t.gapA); t.slack.Cmp(g) < 0 {
			t.slack.Set(g)
		}
	}
	if t.slack.Cmp(hull) > 0 {
		t.slack.Set(hull)
	}
	f.slack.Add(f.slack, t.slack)
}

// forgetSlackLocked removes the entry's slack contribution and drops its
// advisory metadata. Call it before retiring the entry from INTERVALS.
func (f *Farmer) forgetSlackLocked(t *tracked) {
	if t.slack != nil {
		f.slack.Sub(f.slack, t.slack)
		t.slack = nil
	}
	t.gapA, t.gapB = nil, nil
	t.content = nil
}

// foldScan is the one table pass behind a sub-farmer's fold of the binding
// iv (DESIGN.md §9). Over the tracked intervals overlapping iv it reports
// whether there are any, writes their smallest beginning into front (when
// front is non-nil: the per-binding frontier of a multi-binding
// sub-farmer), and returns, fresh, the length they hold inside iv — the
// true content behind a [C,B) hull fold — and the largest hole strictly
// inside iv that none of them covers — fully-explored ground the hull
// would misreport as remaining; gapA is nil when there is no such hole.
// O(W log W) per call, once per fold cadence, never per message.
func (f *Farmer) foldScan(iv interval.Interval, front *big.Int) (found bool, content, gapA, gapB *big.Int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	hits := make([]*tracked, 0, len(f.intervals))
	for _, t := range f.intervals {
		if !t.iv.IsEmpty() && t.iv.Overlaps(iv) {
			hits = append(hits, t)
		}
	}
	content = new(big.Int)
	if len(hits) == 0 {
		return false, content, nil, nil
	}
	slices.SortFunc(hits, func(x, y *tracked) int { return x.iv.Cmp(y.iv) })
	if front != nil {
		hits[0].iv.AInto(front)
	}
	// Walk the fragments by beginning, each clipped to iv: cover is the
	// end of the ground covered so far, and a fragment starting past it
	// opens a hole.
	lo, hi, cover, span, best := new(big.Int), new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for i, t := range hits {
		if t.iv.AInto(lo); iv.CmpA(lo) > 0 {
			iv.AInto(lo)
		}
		if t.iv.BInto(hi); iv.CmpB(hi) < 0 {
			iv.BInto(hi)
		}
		content.Add(content, span.Sub(hi, lo))
		if i > 0 && lo.Cmp(cover) > 0 {
			if span.Sub(lo, cover); span.Cmp(best) > 0 {
				gapA, gapB = new(big.Int).Set(cover), new(big.Int).Set(lo)
				best.Set(span)
			}
		}
		if i == 0 || hi.Cmp(cover) > 0 {
			cover.Set(hi)
		}
	}
	return true, content, gapA, gapB
}

// stealHintLocked summarizes what the farmer tracks beyond the copy with
// id excludeID: how many other entries, and the bit length of their total
// remaining length. Nil unless withStealHints armed it. The exclusion
// keeps the hint honest for the requester — its own copy is not stealable
// work — and costs one subtraction on scratch.
func (f *Farmer) stealHintLocked(excludeID int64) *transport.StealHint {
	if !f.hints {
		return nil
	}
	others := int64(len(f.intervals))
	rem := f.scrHint.Sub(f.idx.total, f.slack)
	if t, ok := f.intervals[excludeID]; ok {
		others--
		rem.Sub(rem, t.iv.LenInto(f.scrLen))
		if t.slack != nil {
			// The aggregate already discounted this entry's slack; restore
			// it so the exclusion does not subtract it twice.
			rem.Add(rem, t.slack)
		}
	}
	if others < 0 {
		others = 0
	}
	return &transport.StealHint{Others: others, RichestBits: int64(rem.BitLen())}
}

// ReportSolution implements transport.Coordinator (§4.4 rule 2).
func (f *Farmer) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock()
	defer f.accountBusy(now)
	if reason := f.vetReportLocked(req); reason != "" {
		f.counters.RejectedReports++
		return transport.SolutionAck{}, fmt.Errorf("farmer: rejected report from %q: %s", truncID(req.Worker), reason)
	}
	f.counters.SolutionReports++
	ack := transport.SolutionAck{}
	if req.Cost < f.bestCost {
		f.bestCost = req.Cost
		f.bestPath = append([]int(nil), req.Path...)
		f.counters.SolutionImprovements++
		ack.Accepted = true
	}
	ack.BestCost = f.bestCost
	return ack, nil
}

// accountBusy charges the elapsed time since start to the farmer's busy
// counter. Under a virtual clock the charge is zero here and the simulator
// accounts message costs itself.
func (f *Farmer) accountBusy(start int64) {
	f.busyNanos += f.clock() - start
}

// BusyNanos returns the cumulative time spent serving requests.
func (f *Farmer) BusyNanos() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.busyNanos
}

// Done reports whether INTERVALS is empty — the paper's implicit
// termination criterion (§4.3).
func (f *Farmer) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cleanLocked()
	return len(f.intervals) == 0
}

// Best returns the current SOLUTION.
func (f *Farmer) Best() bb.Solution {
	f.mu.Lock()
	defer f.mu.Unlock()
	return bb.Solution{Cost: f.bestCost, Path: append([]int(nil), f.bestPath...)}
}

// BestCost returns SOLUTION's cost without copying the path — the
// accessor for reply hot paths that only ever forward the bound.
func (f *Farmer) BestCost() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bestCost
}

// Counters returns a snapshot of the protocol counters.
func (f *Farmer) Counters() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counters
	if f.store != nil {
		st := f.store.Stats()
		c.CorruptSnapshots = st.CorruptSnapshots
		c.FallbackLoads = st.FallbackLoads
	}
	return c
}

// Redundancy returns a snapshot of the redundancy accounting.
func (f *Farmer) Redundancy() RedundancyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return RedundancyStats{
		ConsumedUnits:  new(big.Int).Set(f.redundancy.ConsumedUnits),
		RedundantUnits: new(big.Int).Set(f.redundancy.RedundantUnits),
	}
}

// IntervalsSnapshot returns the current INTERVALS content, ordered by id —
// the Figure 5 view of the system.
func (f *Farmer) IntervalsSnapshot() []checkpoint.IntervalRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]checkpoint.IntervalRecord, 0, len(f.intervals))
	for _, t := range f.intervals {
		out = append(out, checkpoint.IntervalRecord{ID: t.id, Interval: t.iv.Clone()})
	}
	sortRecords(out)
	return out
}

func sortRecords(recs []checkpoint.IntervalRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
}

// Size returns the cardinality of INTERVALS and the total remaining length
// (§4.3: cardinality ≈ number of B&B processes; size = not-yet-explored
// solutions, monotonically decreasing). The total is maintained
// incrementally by the selection index — no full-table big.Int
// re-summation however large the grid.
func (f *Farmer) Size() (cardinality int, totalLen *big.Int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.intervals), new(big.Int).Sub(f.idx.total, f.slack)
}

// FleetPower returns the total power of all live owners across INTERVALS
// — the compute currently attached to this resolution. Maintained
// incrementally by the selection index at its three mutation points, so
// the multi-tenant fair-share rule (internal/jobs) can read every job's
// share per request without a table sweep. A worker owning several copies
// counts once per copy; in the one-interval-per-worker steady state the
// sum is exactly the fleet's power.
func (f *Farmer) FleetPower() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.idx.powerSum
}

// Checkpoint persists INTERVALS and SOLUTION through the attached store
// (§4.1). It errors if no store is attached. Concurrent callers are
// serialized in snapshot order; workers are only blocked for the in-memory
// snapshot, never for the file write.
func (f *Farmer) Checkpoint() error {
	f.ckptMu.Lock()
	defer f.ckptMu.Unlock()
	f.mu.Lock()
	if f.store == nil {
		f.mu.Unlock()
		return fmt.Errorf("farmer: no checkpoint store attached")
	}
	snap := checkpoint.Snapshot{
		Epoch:    f.epoch,
		NextID:   f.nextID,
		BestCost: f.bestCost,
		// The incremental total (lingering empty entries contribute
		// zero, matching the records below which skip them); Load
		// cross-checks it against the record sum.
		TotalLen: new(big.Int).Set(f.idx.total),
	}
	if f.bestPath != nil {
		snap.BestPath = append([]int(nil), f.bestPath...)
	}
	for _, t := range f.intervals {
		if t.iv.IsEmpty() {
			continue
		}
		snap.Intervals = append(snap.Intervals, checkpoint.IntervalRecord{ID: t.id, Interval: t.iv.Clone()})
	}
	store := f.store
	f.counters.FarmerCheckpoints++
	f.mu.Unlock()
	// The sort and the file write happen outside the lock: snap is
	// private by now, and a slow disk (or a big table) must not block the
	// workers — the farmer's low exploitation rate is the scalability
	// claim.
	sortRecords(snap.Intervals)
	return store.Save(snap)
}

// ExpireNow forces a lease sweep with the current clock; tests and the
// simulator use it to make failure handling deterministic.
func (f *Farmer) ExpireNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.expireLocked(f.clock())
}

// Inject registers a fresh orphan interval at runtime: the refill path of a
// sub-farmer seeding a sub-range the root just donated into its own
// INTERVALS. Empty intervals are ignored. The injected interval gets a
// fresh epoch-qualified id and is handed out through the normal allocation
// path (the virtual null-power process rule: first requester takes it all
// or splits it).
func (f *Farmer) Inject(iv interval.Interval) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if iv.IsEmpty() {
		return
	}
	f.addTracked(iv.Clone())
}

// RestrictTo intersects every tracked interval with iv (eq. 14 applied
// table-wide), retiring entries that empty. It is the downward half of the
// hierarchical protocol: when the tier above shrinks a sub-farmer's
// authoritative copy — a tail donated to another subtree, or ground below
// the reported frontier — the sub-farmer restricts its whole table to the
// new bounds. Everything removed here is accounted for elsewhere: above
// the cut it is tracked by the parent under another subtree's copy, below
// it it was already reported consumed. Workers holding removed or narrowed
// copies learn at their next checkpoint, exactly like the paper's lazy
// "after a certain time, the holder process is also informed" rule.
func (f *Farmer) RestrictTo(iv interval.Interval) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, t := range f.intervals {
		t.iv.IntersectInPlace(iv)
		if t.iv.IsEmpty() {
			f.forgetSlackLocked(t)
			f.idx.remove(t)
			delete(f.intervals, id)
		} else {
			f.revalidateGapLocked(t)
			f.reslackLocked(t)
			f.idx.fix(t)
		}
	}
}

// RestrictToUnion intersects every tracked interval with the union of ivs,
// retiring entries that empty — RestrictTo generalized to a sub-farmer
// holding several upstream bindings at once (DESIGN.md §12). The bindings
// a caller passes are pairwise disjoint (they are distinct copies of the
// tier above's partition), and every local interval descends from exactly
// one of them, so the union intersection resolves to at most one member
// per entry.
func (f *Farmer) RestrictToUnion(ivs []interval.Interval) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, t := range f.intervals {
		hit := false
		for _, iv := range ivs {
			if t.iv.Overlaps(iv) {
				t.iv.IntersectInPlace(iv)
				hit = true
				break
			}
		}
		if !hit || t.iv.IsEmpty() {
			f.forgetSlackLocked(t)
			f.idx.remove(t)
			delete(f.intervals, id)
		} else {
			f.revalidateGapLocked(t)
			f.reslackLocked(t)
			f.idx.fix(t)
		}
	}
}

// AdoptBest lowers SOLUTION's cost when cost improves it. The path is
// unknown (a cost learned from the tier above travels without its leaf —
// the root keeps the authoritative path, pushed up with every improving
// report); local workers only ever need the cost, for pruning and for the
// solution-sharing replies.
func (f *Farmer) AdoptBest(cost int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cost < f.bestCost {
		f.bestCost = cost
		f.bestPath = nil
	}
}

// FrontierInto writes the smallest beginning among all tracked intervals
// into dst — the fold frontier a sub-farmer reports upstream: INTERVALS is
// always a subset of [frontier, assigned end). It reports false when the
// table is empty or frontier tracking is disabled (WithFrontierTracking).
func (f *Farmer) FrontierInto(dst *big.Int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frontierLocked(dst)
}

var _ transport.Coordinator = (*Farmer)(nil)
