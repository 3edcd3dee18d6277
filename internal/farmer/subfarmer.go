// The sub-farmer role of the hierarchical farmer tree (DESIGN.md §9). A
// SubFarmer is simultaneously both sides of the paper's protocol:
//
//   - to its own fleet it is a Coordinator — it embeds a full Farmer over
//     the sub-range it was assigned and serves RequestWork/UpdateInterval/
//     ReportSolution exactly as a flat farmer would;
//   - to the tier above it is a worker — its INTERVALS folds to one
//     interval [frontier, B) per upstream binding (the same fold a
//     multicore worker reports for its shards), its power is the fleet
//     power sum, its checkpoint cadence keeps the parent lease alive, and
//     it asks the parent for a fresh sub-range when its local table runs
//     dry — or, when the parent hints there is work elsewhere, shortly
//     before (the work-conserving low-water rule, DESIGN.md §12).
//
// The three messages carry the tree because the interval algebra composes
// — a sub-farmer's INTERVALS is itself a partition of its assigned
// intervals, so one fold per binding is to the root exactly what one fold
// per worker is to a sub-farmer. Upstream they travel as one batch per
// round-trip (transport.Exchange), whatever carries it.
package farmer

import (
	"errors"
	"sync"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/interval"
	"repro/internal/transport"
)

// SubCounters aggregates the sub-farmer's upstream protocol statistics.
// The fleet-facing statistics live in the embedded farmer's Counters.
type SubCounters struct {
	// UpstreamRequests/Updates/Reports count protocol operations
	// DELIVERED to the parent, one per leg of every delivered exchange.
	// An exchange that failed in transit counts under UpstreamLost only:
	// all of its legs will be retried.
	UpstreamRequests, UpstreamUpdates, UpstreamReports int64
	// UpstreamBatches counts delivered exchanges; each one carried
	// whatever legs its cadence had due, so the round-trips a batching
	// carrier saves — (UpstreamUpdates+UpstreamRequests+UpstreamReports)
	// − UpstreamBatches — are visible from these counters alone.
	UpstreamBatches int64
	// UpstreamLost counts upstream exchanges that failed at the
	// transport; every one is retried by a later exchange (the pull
	// model's retry-safety composes up the tree).
	UpstreamLost int64
	// UpstreamTimeouts counts the subset of UpstreamLost whose failure
	// was a call deadline (transport.ErrDeadline): the black-holed-root
	// case a transport.Policy turns from an upstream goroutine pinned
	// forever into a counted, retried loss.
	UpstreamTimeouts int64
	// Refills counts sub-ranges obtained from the parent: the first
	// assignment plus every inter-subtree rebalance toward this subtree.
	Refills int64
	// LowWaterRefills counts the subset of Refills adopted while another
	// live binding was still held — the work-conserving steals the
	// low-water rule pulled in before the table ran dry.
	LowWaterRefills int64
	// Restricts counts table-wide restrictions applied because the
	// parent shrank the authoritative copy (rebalances away from this
	// subtree, or post-restart reconciliation).
	Restricts int64
	// DroppedTables counts live local ranges discarded because the
	// parent no longer tracked their binding (lease expired during a
	// long outage and the range was re-issued elsewhere).
	DroppedTables int64
	// CorruptSnapshots and FallbackLoads mirror the checkpoint store's
	// self-healing counters (checkpoint.Stats) for this sub-farmer's
	// store: corrupt files quarantined (snapshot or upstream binding)
	// and loads served from the previous generation. A corrupt binding
	// never fails a restore — the sub-farmer starts unbound and the
	// parent's lease mechanism recovers the interval — but it is counted
	// here.
	CorruptSnapshots, FallbackLoads int64
}

// SubConfig parameterizes a sub-farmer.
type SubConfig struct {
	// ID identifies this sub-farmer to the parent.
	ID transport.WorkerID
	// UpdateEvery is how many fleet messages to serve between two
	// upstream folds (the piggyback cadence). Default 16.
	UpdateEvery int64
	// UpdatePeriod is the time cadence of upstream folds, enforced by
	// Pulse — it must stay well under the parent's lease TTL so a quiet
	// fleet does not get its sub-range orphaned. Default 30s.
	UpdatePeriod time.Duration
	// FleetTTL is how long a silent fleet worker keeps contributing to
	// the reported fleet power. Default one minute.
	FleetTTL time.Duration
	// LowWater, when set, arms the work-conserving refill rule: a fold
	// cadence that finds the local remaining length under this mark —
	// and the parent's last StealHint promising tracked work elsewhere —
	// requests a second sub-range BEFORE the table runs dry, so the
	// subtree never idles a WAN round-trip waiting for the retire-and-
	// refill pair. Zero (default) keeps the strict refill-on-dry rule;
	// the rule also stays dormant under a parent that never hints (one
	// built without withStealHints).
	LowWater interval.Num
	// Clock injects a nanosecond clock (virtual in the simulator and the
	// chaos harness). Default wall clock.
	Clock func() int64
	// Store, when set, is the sub-farmer's own checkpoint store: the
	// §4.1 two-file snapshot of its local INTERVALS/SOLUTION plus the
	// upstream binding file. A sub-farmer restart replays the §4.1
	// mechanics at its tier; the parent only sees a lease blip.
	Store *checkpoint.Store
	// InnerOptions are passed to the embedded farmer (threshold, lease
	// TTL for the fleet, equal-split ablation...). Clock and Store from
	// this config are appended automatically.
	InnerOptions []Option
}

func (c *SubConfig) fillDefaults() {
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = 16
	}
	if c.UpdatePeriod <= 0 {
		c.UpdatePeriod = 30 * time.Second
	}
	if c.FleetTTL <= 0 {
		c.FleetTTL = time.Minute
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
}

// fleetEntry is one fleet worker's contribution to the power sum.
type fleetEntry struct {
	power    int64
	lastSeen int64
}

// upBinding is one parent-side copy this subtree is exploring. Bindings
// are pairwise disjoint — they are distinct copies of the parent's
// partition — so every local interval descends from exactly one of them.
type upBinding struct {
	id int64
	iv interval.Interval
}

// maxBindings caps how many parent copies a sub-farmer holds at once: the
// live range plus a few pre-fetched by the low-water rule. Four keeps the
// per-binding fold fan-out bounded while letting a draining subtree soak up
// enough foreign ground per cadence to matter at fleet scale.
const maxBindings = 4

// SubFarmer is the mid-tier coordinator. Like the Farmer it wraps, it is a
// monitor — every operation takes the single mutex — with one deliberate
// exception: the mutex is released around blocking parent RPCs (upCall),
// serialized instead by the upBusy token, so the fleet keeps being served
// while a fold crosses the WAN. Lock order is always SubFarmer → embedded
// Farmer and SubFarmer → parent, never the reverse (the parent never calls
// down — the protocol is pull-model at every tier).
type SubFarmer struct {
	mu    sync.Mutex
	cfg   SubConfig
	up    transport.Coordinator
	inner *Farmer

	// Upstream bindings: the parent-side copies this subtree is
	// exploring, primary first. Usually one; a second appears during a
	// low-water episode (or when the parent's endgame rule duplicates a
	// crumb here) and retires through the same per-binding fold.
	bindings []upBinding

	// lastBoundID remembers the most recent binding id even after the
	// binding retired — the stale id the post-termination statistics
	// flush rides (the parent accumulates deltas before the id lookup).
	lastBoundID int64

	// lastHint is the parent's latest StealHint (nil until one arrives;
	// permanently nil under a parent that does not hint, which keeps the
	// low-water rule and the gap/content declarations dormant).
	lastHint *transport.StealHint

	// upBusy is the upstream-exchange token: the holder may release mu
	// around the blocking parent RPC (upCall) while keeping exclusive
	// ownership of the bindings, bestSentUp, the sent-stats watermarks
	// and the fold scratch. Fleet messages keep being served during
	// an in-flight exchange — one slow or hung parent round-trip must not
	// freeze the whole subtree — and any cadence that finds the token
	// taken simply skips; the next cadence retries, which is the
	// protocol's normal loss discipline anyway.
	upBusy bool

	// finished latches the parent's global termination verdict; local
	// dryness is never surfaced to the fleet as termination.
	finished bool

	fleet map[transport.WorkerID]*fleetEntry

	// bestSentUp is the solution cost the parent is known to have; a
	// lower local best is (re-)pushed on every upstream exchange until
	// one succeeds, so a dropped report is healed, not fatal.
	bestSentUp int64

	// sinceMsgs and lastFoldNanos drive the two fold cadences.
	sinceMsgs     int64
	lastFoldNanos int64

	// sentStats tracks the exploration deltas already shipped upstream,
	// so the root's Table 2 counters aggregate the whole tree.
	sentExplored, sentPruned, sentLeaves int64

	counters SubCounters

	// Scratch numbers for the fold path (guarded by mu).
	scrFront, scrB interval.Num
}

// newSubFarmer creates a sub-farmer with an empty local table. The first
// fleet request triggers the first refill from the parent.
func newSubFarmer(cfg SubConfig, up transport.Coordinator) *SubFarmer {
	cfg.fillDefaults()
	s := &SubFarmer{
		cfg:        cfg,
		up:         up,
		fleet:      make(map[transport.WorkerID]*fleetEntry),
		bestSentUp: bb.Infinity,
	}
	s.inner = New(interval.Interval{}, s.innerOptions()...)
	return s
}

// RestoreSubFarmer creates a sub-farmer from its checkpoint store: the
// local table from the two-file snapshot (§4.1 replayed at this tier) and
// the parent session from the binding file. With no checkpoint on disk it
// degenerates to newSubFarmer.
func RestoreSubFarmer(cfg SubConfig, up transport.Coordinator) (*SubFarmer, error) {
	cfg.fillDefaults()
	if cfg.Store == nil || !cfg.Store.Exists() {
		return newSubFarmer(cfg, up), nil
	}
	s := &SubFarmer{
		cfg:        cfg,
		up:         up,
		fleet:      make(map[transport.WorkerID]*fleetEntry),
		bestSentUp: bb.Infinity,
	}
	inner, err := Restore(interval.Interval{}, cfg.Store, s.innerOptions()...)
	if err != nil {
		return nil, err
	}
	s.inner = inner
	bs, ok, err := cfg.Store.LoadBindings()
	if err != nil {
		return nil, err
	}
	if ok {
		for _, b := range bs {
			if !b.Bound || len(s.bindings) >= maxBindings {
				continue
			}
			s.bindings = append(s.bindings, upBinding{id: b.ID, iv: b.Interval.Clone()})
		}
		if len(s.bindings) > 0 {
			s.lastBoundID = s.bindings[0].id
		}
	}
	return s, nil
}

func (s *SubFarmer) innerOptions() []Option {
	opts := append([]Option{}, s.cfg.InnerOptions...)
	opts = append(opts, WithClock(s.cfg.Clock), WithFrontierTracking())
	if s.cfg.Store != nil {
		opts = append(opts, WithCheckpointStore(s.cfg.Store))
	}
	return opts
}

// ID returns the sub-farmer's upstream identity.
func (s *SubFarmer) ID() transport.WorkerID { return s.cfg.ID }

// Inner exposes the embedded farmer (statistics, Size, Best) — read-only
// use; all mutations must go through the protocol.
func (s *SubFarmer) Inner() *Farmer { return s.inner }

// Counters returns a snapshot of the upstream protocol counters.
func (s *SubFarmer) Counters() SubCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		c.CorruptSnapshots = st.CorruptSnapshots
		c.FallbackLoads = st.FallbackLoads
	}
	return c
}

// noteUpstreamErrLocked accounts one failed upstream exchange, splitting
// out deadline failures: a lost message and a black-holed root are retried
// the same way, but an operator watching the counters needs to tell a
// flaky link from a stalled coordinator.
func (s *SubFarmer) noteUpstreamErrLocked(err error) {
	s.counters.UpstreamLost++
	if errors.Is(err, transport.ErrDeadline) {
		s.counters.UpstreamTimeouts++
	}
}

// Finished reports whether the parent declared the resolution over.
func (s *SubFarmer) Finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// Bound reports whether the sub-farmer currently holds a parent interval,
// and its (primary) id.
func (s *SubFarmer) Bound() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bindings) == 0 {
		return s.lastBoundID, false
	}
	return s.bindings[0].id, true
}

// IntervalsSnapshot exposes the local INTERVALS content — the tier view the
// nested conformance harness audits.
func (s *SubFarmer) IntervalsSnapshot() []checkpoint.IntervalRecord {
	return s.inner.IntervalsSnapshot()
}

// noteFleetLocked refreshes the fleet power ledger with a sanitized claim.
func (s *SubFarmer) noteFleetLocked(w transport.WorkerID, power, now int64) {
	if power <= 0 {
		return
	}
	if power > MaxPower {
		power = MaxPower
	}
	e, ok := s.fleet[w]
	if !ok {
		e = &fleetEntry{}
		s.fleet[w] = e
	}
	e.power, e.lastSeen = power, now
}

// fleetPowerLocked sums the live fleet powers, pruning silent entries, and
// clamps the sum into the parent's accepted range. An empty fleet reports
// 1: the sub-farmer itself is alive, and the parent rejects non-positive
// claims.
func (s *SubFarmer) fleetPowerLocked(now int64) int64 {
	ttl := int64(s.cfg.FleetTTL)
	var sum int64
	for w, e := range s.fleet {
		if now-e.lastSeen > ttl {
			delete(s.fleet, w)
			continue
		}
		sum += e.power
		if sum >= MaxPower || sum < 0 { // saturate on overflow
			sum = MaxPower
			break
		}
	}
	if sum < 1 {
		sum = 1
	}
	return sum
}

// RequestWork implements transport.Coordinator for the fleet. When the
// local table is dry it refills from the parent first — the reactive half
// of the tier-above load balancing (the proactive half is the low-water
// rule riding the fold cadence).
func (s *SubFarmer) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	s.noteFleetLocked(req.Worker, req.Power, now)
	// Two passes: a dry table refills once, then the inner allocation is
	// retried; a second dry verdict (refill failed or yielded nothing)
	// is surfaced as wait/finished.
	for attempt := 0; attempt < 2; attempt++ {
		if s.finished {
			return transport.WorkReply{Status: transport.WorkFinished, BestCost: s.inner.BestCost()}, nil
		}
		reply, err := s.inner.RequestWork(req)
		if err != nil {
			return reply, err
		}
		if reply.Status == transport.WorkAssigned {
			s.tickCadenceLocked(now)
			return reply, nil
		}
		// Inner says finished ⇒ the local table is dry, which at this
		// tier means "go ask the parent", never "stop the fleet".
		if !s.refillLocked(now) {
			break
		}
	}
	if s.finished {
		return transport.WorkReply{Status: transport.WorkFinished, BestCost: s.inner.BestCost()}, nil
	}
	return transport.WorkReply{Status: transport.WorkWait, BestCost: s.inner.BestCost()}, nil
}

// UpdateInterval implements transport.Coordinator for the fleet: the inner
// farmer applies eq. 14 locally, and the sub-farmer folds upstream on its
// cadence. A local-dry verdict triggers the upstream retire-and-refill
// inline so the fleet never stalls on a drained subtree.
func (s *SubFarmer) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	s.noteFleetLocked(req.Worker, req.Power, now)
	reply, err := s.inner.UpdateInterval(req)
	if err != nil {
		return reply, err
	}
	if reply.Finished {
		// Local table dry: retire the primary upstream copy (everything
		// it still covered is genuinely explored — see exchangeUpLocked)
		// and pull a fresh sub-range in the same exchange.
		s.refillLocked(now)
	} else {
		s.tickCadenceLocked(now)
	}
	reply.Finished = s.finished
	reply.BestCost = s.inner.BestCost()
	return reply, nil
}

// ReportSolution implements transport.Coordinator for the fleet: rule 2 of
// solution sharing composes up the tree — improvements are pushed to the
// parent immediately, with their leaf path, and the parent's (possibly
// better) verdict is adopted locally so fleet replies always carry the
// global best.
func (s *SubFarmer) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ack, err := s.inner.ReportSolution(req)
	if err != nil {
		return ack, err
	}
	if !s.upBusy && s.inner.BestCost() < s.bestSentUp {
		// A report-only exchange. A push that is lost, or that finds the
		// token taken, rides the next exchange instead: bestSentUp only
		// moves on success.
		s.exchangeUpLocked(-1, s.cfg.Clock(), false)
	}
	ack.BestCost = s.inner.BestCost()
	return ack, nil
}

// Pulse drives the time-based upstream cadence: the runtime (a ticker
// goroutine, the simulator's tick loop, the chaos harness) calls it
// periodically so a quiet fleet still keeps the parent lease alive. After
// global termination it flushes any straggler statistics instead (fleet
// checkpoints that landed after the final fold), so the root's Table 2
// counters converge on the whole tree's totals.
func (s *SubFarmer) Pulse() { s.pulse(false) }

// Flush is Pulse without the UpdatePeriod throttle: it folds the fleet's
// progress to the parent now, due or not. A daemon's stop path calls it so
// the parent sees the subtree's progress up to the stop, not up to the
// last period.
func (s *SubFarmer) Flush() { s.pulse(true) }

func (s *SubFarmer) pulse(force bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	if s.finished {
		s.flushStatsLocked(now)
		return
	}
	if len(s.bindings) > 0 && (force || now-s.lastFoldNanos >= int64(s.cfg.UpdatePeriod)) {
		s.foldUpLocked(now)
	}
}

// upCall runs one parent exchange with the fleet mutex released. Caller
// holds s.mu and has verified the upBusy token is free; upCall returns
// with s.mu re-held. State owned by the token (bindings, bestSentUp,
// sent-stats, scratch) is stable across the window; the local table is
// not, and callers must treat pre-call table snapshots accordingly.
func (s *SubFarmer) upCall(req transport.BatchRequest) (transport.BatchReply, error) {
	s.upBusy = true
	s.mu.Unlock()
	reply, err := transport.Exchange(s.up, req)
	s.mu.Lock()
	s.upBusy = false
	return reply, err
}

// flushStatsLocked ships exploration deltas that accrued after the final
// fold. The bindings are gone by now, so the update rides the last (stale)
// id: the parent accumulates statistics deltas before the id lookup, and
// the Known=false verdict is exactly what we expect back. No-op while an
// exchange is in flight or when nothing is pending.
func (s *SubFarmer) flushStatsLocked(now int64) {
	if s.upBusy {
		return
	}
	ec, pc, lc := s.innerStatsLocked()
	if ec == s.sentExplored && pc == s.sentPruned && lc == s.sentLeaves {
		return
	}
	_, err := s.upCall(transport.BatchRequest{
		Worker:        s.cfg.ID,
		Power:         s.fleetPowerLocked(now),
		HasFold:       true,
		FoldID:        s.lastBoundID,
		ExploredDelta: ec - s.sentExplored,
		PrunedDelta:   pc - s.sentPruned,
		LeavesDelta:   lc - s.sentLeaves,
	})
	if err != nil {
		s.noteUpstreamErrLocked(err)
		return
	}
	s.counters.UpstreamBatches++
	s.counters.UpstreamUpdates++
	s.sentExplored, s.sentPruned, s.sentLeaves = ec, pc, lc
}

// Checkpoint persists the local two-file snapshot and the upstream
// bindings.
func (s *SubFarmer) Checkpoint() error {
	if err := s.inner.Checkpoint(); err != nil {
		return err
	}
	s.mu.Lock()
	bs := make([]checkpoint.Binding, 0, len(s.bindings))
	for _, b := range s.bindings {
		bs = append(bs, checkpoint.Binding{Bound: true, ID: b.id, Interval: b.iv.Clone()})
	}
	store := s.cfg.Store
	s.mu.Unlock()
	if store == nil {
		return nil
	}
	return store.SaveBindings(bs)
}

// tickCadenceLocked counts a served fleet message and folds upstream when
// either cadence (message count or time) is due.
func (s *SubFarmer) tickCadenceLocked(now int64) {
	if len(s.bindings) == 0 {
		return
	}
	s.sinceMsgs++
	if s.sinceMsgs >= s.cfg.UpdateEvery || now-s.lastFoldNanos >= int64(s.cfg.UpdatePeriod) {
		s.foldUpLocked(now)
	}
}

// bindingIdx locates a binding by parent-side id; -1 when not held.
func (s *SubFarmer) bindingIdx(id int64) int {
	for i, b := range s.bindings {
		if b.id == id {
			return i
		}
	}
	return -1
}

// bindingIvsLocked snapshots the authoritative intervals of every held
// binding, for table-wide restriction to their union.
func (s *SubFarmer) bindingIvsLocked() []interval.Interval {
	ivs := make([]interval.Interval, len(s.bindings))
	for i, b := range s.bindings {
		ivs[i] = b.iv
	}
	return ivs
}

// foldUpLocked sends the worker-side checkpoint of this tier: the fold
// [frontier, B) of each binding's share of the local INTERVALS, the fleet
// power, and the exploration deltas, one exchange per binding, primary
// first. The parent's reply is authoritative (eq. 14): the local table is
// restricted to it, which is how inter-subtree rebalancing decisions
// propagate down. When the parent's last hint promises tracked work
// elsewhere and the local remainder is under the low-water mark, the
// primary's exchange also pulls a fresh sub-range in the same round-trip —
// refilling BEFORE the table runs dry instead of idling the retire-refill
// gap. The rule is evaluated before the fold, and the grant is adopted
// before the secondaries fold.
//
// The fold is sound in both directions. Its end is pinned at the last
// known copy end, which never undershoots the parent's (the parent's end
// only shrinks, and every shrink this sub-farmer has seen is reflected
// here), so the parent's stale-copy carve — the farmer-restart repair —
// never misfires on a live subtree. Its beginning is the minimum beginning
// over the binding's share of the local table: everything below it was
// reported consumed by fleet workers, so the parent crediting
// [old A, frontier) as explored is exact.
func (s *SubFarmer) foldUpLocked(now int64) {
	if len(s.bindings) == 0 || s.upBusy {
		return
	}
	want := s.wantMoreLocked()
	// Snapshot the ids before the first exchange: a verdict may reshuffle
	// the slice (retire the primary, promote a secondary).
	ids := make([]int64, len(s.bindings))
	for i, b := range s.bindings {
		ids[i] = b.id
	}
	for i, id := range ids {
		bi := s.bindingIdx(id)
		if s.finished || bi < 0 {
			continue
		}
		if delivered, _ := s.exchangeUpLocked(bi, now, want && i == 0); !delivered {
			// A lost exchange ends the cadence; the next one retries.
			return
		}
	}
}

// exchangeUpLocked is one upstream round-trip: the fold of bindings[bi]
// (bi < 0: no fold — the unbound first refill, or a bare solution push),
// the fleet power, the exploration deltas, any unsent best solution, and —
// when wantWork is set — the refill request that would otherwise be a
// separate exchange. Caller holds mu and has verified the upBusy token is
// free. Counters and watermarks move only on success: a lost exchange is
// retried by a later cadence with nothing double-counted. Reports whether
// the exchange was delivered and whether it left the table ready for
// another allocation attempt.
func (s *SubFarmer) exchangeUpLocked(bi int, now int64, wantWork bool) (delivered, workReady bool) {
	req := transport.BatchRequest{
		Worker:   s.cfg.ID,
		Power:    s.fleetPowerLocked(now),
		WantWork: wantWork,
	}
	// rangeLive is a snapshot: the fleet keeps updating while the RPC is
	// in flight, so the range may drain before the reply lands. The drop
	// branches in the verdict stay correct either way (restricting an
	// already empty range is a no-op).
	var rangeLive bool
	var ec, pc, lc int64
	if bi >= 0 {
		b := s.bindings[bi]
		// The fold frontier: the single-binding case reads the O(log W)
		// frontier heap; only a low-water episode (two bindings) needs the
		// per-range table pass. Behind a parent that hints — one running
		// the endgame machinery — the fold also declares the binding's
		// true content and its largest explored hole, from that same one
		// pass. Both declarations are snapshots taken before the mutex is
		// released for the RPC and stay sound across the flight:
		// exploration is monotone, so the content can only overstate the
		// ground left (keeping the parent's discount conservative), and no
		// refill can inject work into the hole while the upBusy token is
		// held.
		var content interval.Num
		var gap interval.Interval
		if len(s.bindings) == 1 {
			rangeLive = s.inner.FrontierInto(&s.scrFront)
			if rangeLive && s.lastHint != nil {
				_, content, gap = s.inner.foldScan(b.iv, nil)
			}
		} else {
			rangeLive, content, gap = s.inner.foldScan(b.iv, &s.scrFront)
		}
		if !rangeLive {
			// An empty range folds to the empty interval [B, B): the parent
			// retires the copy, completing this sub-range.
			s.scrFront.Set(b.iv.Hi())
		}
		ec, pc, lc = s.innerStatsLocked()
		req.HasFold, req.FoldID = true, b.id
		s.scrB.Set(b.iv.Hi())
		req.Remaining = interval.Of(s.scrFront, s.scrB).Clone()
		req.ExploredDelta = ec - s.sentExplored
		req.PrunedDelta = pc - s.sentPruned
		req.LeavesDelta = lc - s.sentLeaves
		if s.lastHint != nil && rangeLive {
			req.FoldContent = content.Big()
			// The gap is offered when it is worth carving: at least 1/64
			// of the hull.
			if !gap.IsEmpty() {
				var gapLen, hullLen interval.Num
				gapLen.Mul64(gap.Width(), 64)
				hullLen.Sub(s.scrB, s.scrFront)
				if gapLen.Cmp(hullLen) >= 0 {
					req.HasFoldGap, req.FoldGap = true, gap
				}
			}
		}
	}
	if best := s.inner.Best(); best.Cost < s.bestSentUp {
		req.HasReport, req.Cost, req.Path = true, best.Cost, best.Path
	}
	reply, err := s.upCall(req)
	if err != nil {
		s.noteUpstreamErrLocked(err)
		return false, false
	}
	s.counters.UpstreamBatches++
	if req.HasReport {
		s.counters.UpstreamReports++
		if req.Cost < s.bestSentUp {
			s.bestSentUp = req.Cost
		}
	}
	if wantWork {
		s.counters.UpstreamRequests++
	}
	s.adoptUpstreamBestLocked(reply.BestCost)
	if req.HasFold {
		s.counters.UpstreamUpdates++
		s.sentExplored, s.sentPruned, s.sentLeaves = ec, pc, lc
		s.sinceMsgs = 0
		s.lastFoldNanos = now
		if reply.Hint != nil {
			s.lastHint = reply.Hint
		}
		s.applyFoldVerdictLocked(req.FoldID, reply, rangeLive)
	}
	if reply.HasWork && !s.finished {
		workReady = s.adoptWorkReplyLocked(reply, now)
	}
	return true, workReady
}

// wantMoreLocked is the work-conserving low-water rule: ask the parent for
// a second sub-range when the local remainder is under the mark, the
// parent's last hint promises tracked work elsewhere, and there is a free
// binding slot. Dormant without a LowWater mark or under a parent that
// never hints — then refill stays strictly on-dry.
func (s *SubFarmer) wantMoreLocked() bool {
	if s.cfg.LowWater.Sign() == 0 || s.finished || s.lastHint == nil {
		return false
	}
	if len(s.bindings) == 0 || len(s.bindings) >= maxBindings {
		return false
	}
	if s.lastHint.Others <= 0 || s.lastHint.RichestBits <= 0 {
		return false
	}
	_, total := s.inner.Size()
	return total.Cmp(s.cfg.LowWater) < 0
}

// applyFoldVerdictLocked applies the fold leg of the parent's authoritative
// reply for one binding. Caller still owns the fold scratch (scrFront/scrB
// hold the fold bounds just sent).
func (s *SubFarmer) applyFoldVerdictLocked(id int64, reply transport.BatchReply, rangeLive bool) {
	if s.finished = s.finished || reply.Finished; s.finished {
		// Global termination: whatever remains locally is duplicated
		// residue of ground another subtree already proved (the root's
		// union is empty, so every leaf is accounted for). Drop it so
		// the fleet stops instead of re-proving it.
		s.bindings = nil
		s.inner.RestrictTo(interval.Interval{})
		return
	}
	bi := s.bindingIdx(id)
	if bi < 0 {
		return
	}
	if !reply.Known || reply.Interval.IsEmpty() {
		// Known=false: the parent no longer tracks the binding. For an
		// empty range that is just the retire racing a completed copy;
		// for a live one it means the lease expired during an outage and
		// the range lives on under other owners — keeping it would
		// duplicate their work leaf for leaf. An empty authoritative
		// copy means the same from the other side: our own retire fold,
		// or the parent saw everything we still plan consumed elsewhere.
		// Either way the binding retires and any live residue under it
		// is cut away (the union restriction spares the other binding).
		s.bindings = append(s.bindings[:bi], s.bindings[bi+1:]...)
		if rangeLive {
			s.inner.RestrictToUnion(s.bindingIvsLocked())
			s.counters.DroppedTables++
		}
		return
	}
	// Restrict the binding's share of the local table to the
	// authoritative copy when it actually cuts something: a tail donated
	// to another subtree, or — after a restart from checkpoint — ground
	// below the frontier the previous incarnation had already reported
	// consumed.
	cut := reply.Interval.Lo().Cmp(s.scrFront) > 0 || reply.Interval.Hi().Cmp(s.scrB) < 0
	s.bindings[bi].iv = reply.Interval.Clone()
	if cut {
		if len(s.bindings) == 1 {
			s.inner.RestrictTo(reply.Interval)
		} else {
			s.inner.RestrictToUnion(s.bindingIvsLocked())
		}
		s.counters.Restricts++
	}
}

// refillLocked handles the dry-table moment in ONE exchange: the primary
// binding's (empty) fold, so the parent retires the finished copy, with the
// request for a fresh sub-range at the fleet's aggregate power riding
// along. An unbound sub-farmer — the first refill, or every copy already
// retired — sends the request alone. Reports whether the local table is
// ready for another allocation attempt.
func (s *SubFarmer) refillLocked(now int64) bool {
	if s.upBusy {
		// Another worker's message is already mid-exchange with the
		// parent; this one waits its turn (WorkWait → retry).
		return false
	}
	bi := -1
	if len(s.bindings) > 0 {
		bi = 0
	}
	_, workReady := s.exchangeUpLocked(bi, now, true)
	return workReady
}

// adoptWorkReplyLocked applies the refill leg of the parent's reply.
// Reports whether the local table is ready for another allocation attempt.
func (s *SubFarmer) adoptWorkReplyLocked(reply transport.BatchReply, now int64) bool {
	s.adoptUpstreamBestLocked(reply.BestCost)
	switch reply.Status {
	case transport.WorkFinished:
		s.finished = true
		return false
	case transport.WorkAssigned:
		if bi := s.bindingIdx(reply.IntervalID); bi >= 0 {
			// The parent handed our own copy back — the endgame
			// duplication rule keeps one copy per interval and may pick
			// the requester's (§4.2). The table already covers it;
			// adopt the authoritative bounds and inject nothing, or the
			// subtree would re-explore its own remainder.
			s.bindings[bi].iv = reply.WorkInterval.Clone()
			return false
		}
		full := len(s.bindings) >= maxBindings
		s.bindings = append(s.bindings, upBinding{id: reply.IntervalID, iv: reply.WorkInterval.Clone()})
		s.lastBoundID = reply.IntervalID
		if full || reply.WorkInterval.IsEmpty() {
			// No free slot (a racing refill filled it), or a crumb split
			// donated the empty interval: fold the grant straight back so
			// the parent retires or re-issues it.
			s.exchangeUpLocked(len(s.bindings)-1, now, false)
			return false
		}
		if len(s.bindings) > 1 {
			s.counters.LowWaterRefills++
		}
		s.inner.Inject(reply.WorkInterval)
		s.sinceMsgs = 0
		s.lastFoldNanos = now
		s.counters.Refills++
		return true
	default:
		return false
	}
}

// adoptUpstreamBestLocked folds a cost learned from the parent into the
// local SOLUTION (rule 3 of solution sharing, composed down the tree). A
// cost the parent already has never needs re-sending.
func (s *SubFarmer) adoptUpstreamBestLocked(cost int64) {
	if cost < s.bestSentUp {
		s.bestSentUp = cost
	}
	s.inner.AdoptBest(cost)
}

// innerStatsLocked reads the fleet's cumulative exploration counters from
// the embedded farmer.
func (s *SubFarmer) innerStatsLocked() (explored, pruned, leaves int64) {
	c := s.inner.Counters()
	return c.ExploredNodes, c.PrunedNodes, c.EvaluatedLeaves
}

var _ transport.Coordinator = (*SubFarmer)(nil)
