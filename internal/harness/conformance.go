package harness

import (
	"fmt"
	"math/big"

	"repro/internal/checkpoint"
	"repro/internal/interval"
	"repro/internal/transport"
)

// auditedCoordinator is what the tracker wraps: the three protocol
// endpoints plus a view of the INTERVALS content. The farmer satisfies it;
// tests substitute deliberately broken implementations to prove the
// tracker's checks have teeth.
type auditedCoordinator interface {
	transport.Coordinator
	IntervalsSnapshot() []checkpoint.IntervalRecord
}

// tracker is the conformance layer of the farmer scenarios: a Coordinator
// middleware sitting between the chaos interceptor and the real farmer. It
// observes the INTERVALS multiset around every delivered message and holds
// the runtime to the paper's interval algebra, stated as three mechanical
// conservation laws:
//
//   - allocation (RequestWork) and solution sharing (ReportSolution) leave
//     the union of INTERVALS exactly unchanged — the partitioning operator
//     tiles, it never creates or destroys work (§4.2). One amendment since
//     PR 8: a gap-carving split (DESIGN.md §12) may shrink the union at
//     allocation time, but only by ground some reporter has explicitly
//     vouched as explored in a prior fold's gap declaration — that ground
//     is credited to the covered set exactly like a fold removal;
//   - a checkpoint update (UpdateInterval) only ever shrinks the union
//     (eq. 14 intersections), and whatever it removes is credited to the
//     workers' covered set — eq. 10: consumed leaf numbers leave INTERVALS
//     only by being explored;
//   - a farmer restart re-opens exactly the regions covered since the last
//     snapshot, never more — the §4.1 claim that lost work is bounded by
//     the checkpoint period.
//
// At termination the covered set must equal the root range: the union of
// completed intervals plus checkpointed remainders partitions the initial
// work unit at every observation point in between.
type tracker struct {
	f    auditedCoordinator
	root interval.Interval

	// covered accumulates regions removed from INTERVALS by updates.
	covered *interval.Set
	// declaredGaps accumulates every gap region a fold has vouched as
	// explored (UpdateRequest.Gap). A vouch is permanent — explored is
	// explored — and it is the ONLY license for an allocation-time union
	// shrink: the gap-carving split hands out the far side of a declared
	// hole and retires the hole itself.
	declaredGaps *interval.Set
	// overlap is the total re-covered measure (redundant exploration).
	overlap *big.Int
	// reworkBudget is how much overlap the observed fault events justify.
	reworkBudget *big.Int
	// coveredSinceCkpt measures removals since the last farmer snapshot;
	// a restart may re-open at most this much.
	coveredSinceCkpt *big.Int
	// lastCkpt is the INTERVALS union at the last snapshot (the root
	// range before any snapshot: a restart with no checkpoint restarts
	// the whole resolution).
	lastCkpt *interval.Set
	// prevCkpt / coveredSincePrev mirror lastCkpt / coveredSinceCkpt one
	// generation back: the store keeps the previous snapshot as *.prev,
	// so a restart whose current generation is corrupt legitimately
	// restores this older state — re-opening at most what was covered
	// since THAT snapshot.
	prevCkpt         *interval.Set
	coveredSincePrev *big.Int

	violations []string
}

func newTracker(root interval.Interval) *tracker {
	return &tracker{
		root:             root.Clone(),
		covered:          interval.NewSet(),
		declaredGaps:     interval.NewSet(),
		overlap:          new(big.Int),
		reworkBudget:     new(big.Int),
		coveredSinceCkpt: new(big.Int),
		lastCkpt:         interval.NewSet(root),
		prevCkpt:         interval.NewSet(root),
		coveredSincePrev: new(big.Int),
	}
}

// attach points the tracker at a (possibly freshly restored) coordinator.
func (t *tracker) attach(f auditedCoordinator) { t.f = f }

func (t *tracker) violatef(format string, args ...any) {
	t.violations = append(t.violations, fmt.Sprintf(format, args...))
}

// union reads the current INTERVALS content as a set, checking on the way
// that the farmer's copies are pairwise disjoint — overlapping coordinator
// copies would double-count work.
func (t *tracker) union() *interval.Set {
	s := interval.NewSet()
	for _, rec := range t.f.IntervalsSnapshot() {
		if ov := s.Add(rec.Interval); ov.Sign() != 0 {
			t.violatef("INTERVALS entries overlap at id %d by %s units", rec.ID, ov)
		}
	}
	return s
}

// RequestWork implements transport.Coordinator: allocation conserves the
// union exactly, except that a gap-carving split may retire ground a
// reporter has vouched as explored — which is then covered work.
func (t *tracker) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	before := t.union()
	reply, err := t.f.RequestWork(req)
	after := t.union()
	if grown := interval.SetDiff(after, before); !grown.IsEmpty() {
		t.violatef("RequestWork(%s) grew the INTERVALS union by %s", req.Worker, grown)
	}
	removed := interval.SetDiff(before, after)
	if stray := interval.SetDiff(removed, t.declaredGaps); !stray.IsEmpty() {
		t.violatef("RequestWork(%s) shrank the INTERVALS union by %s, which no fold vouched as an explored gap", req.Worker, stray)
	}
	for _, iv := range removed.Intervals() {
		t.overlap.Add(t.overlap, t.covered.Add(iv).Big())
		t.coveredSinceCkpt.Add(t.coveredSinceCkpt, iv.Len())
	}
	return reply, err
}

// UpdateInterval implements transport.Coordinator: updates only shrink the
// union, and every removed region is covered work.
func (t *tracker) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	before := t.union()
	reply, err := t.f.UpdateInterval(req)
	after := t.union()
	if req.HasGap && err == nil && reply.Known {
		t.declaredGaps.Add(req.Gap)
	}
	if grown := interval.SetDiff(after, before); !grown.IsEmpty() {
		t.violatef("UpdateInterval(%s id=%d) grew INTERVALS by %s", req.Worker, req.IntervalID, grown)
	}
	removed := interval.SetDiff(before, after)
	for _, iv := range removed.Intervals() {
		t.overlap.Add(t.overlap, t.covered.Add(iv).Big())
		t.coveredSinceCkpt.Add(t.coveredSinceCkpt, iv.Len())
	}
	return reply, err
}

// ReportSolution implements transport.Coordinator: sharing never touches
// INTERVALS.
func (t *tracker) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	before := t.union()
	ack, err := t.f.ReportSolution(req)
	if after := t.union(); !before.Equal(after) {
		t.violatef("ReportSolution(%s) changed the INTERVALS union", req.Worker)
	}
	return ack, err
}

// noteCheckpoint records a farmer snapshot and checks the partition
// invariant at this observation point: covered ∪ INTERVALS ⊇ root — no
// leaf number is unaccounted for. The store rotates the old current
// generation to *.prev on every successful save, so the generation
// bookkeeping shifts in step.
func (t *tracker) noteCheckpoint() {
	t.prevCkpt = t.lastCkpt
	t.coveredSincePrev = new(big.Int).Set(t.coveredSinceCkpt)
	t.lastCkpt = t.union()
	t.coveredSinceCkpt.SetInt64(0)
	all := t.covered.Clone()
	for _, iv := range t.lastCkpt.Intervals() {
		all.Add(iv)
	}
	if gaps := all.Gaps(t.root); len(gaps) > 0 {
		t.violatef("checkpoint leaves uncovered gaps %v", gaps)
	}
}

// noteRestart audits a farmer restored from a snapshot: the restored
// INTERVALS must equal what was saved — the last generation normally, the
// previous one when the load fell back past a corrupt current — and the
// re-opened (to-be-re-explored) measure must not exceed what was covered
// since the restored snapshot.
func (t *tracker) noteRestart(fellBack bool) {
	restored := t.union()
	want, allowed := t.lastCkpt, new(big.Int).Set(t.coveredSinceCkpt)
	if fellBack {
		want = t.prevCkpt
		allowed.Add(allowed, t.coveredSincePrev)
	}
	if !restored.Equal(want) {
		t.violatef("restore disagrees with its checkpoint generation: %s != %s", restored, want)
	}
	reopened := new(big.Int)
	for _, iv := range restored.Intervals() {
		reopened.Add(reopened, t.covered.Sub(iv).Big())
	}
	if reopened.Cmp(allowed) > 0 {
		t.violatef("restart re-opened %s units, more than the %s covered since the restored checkpoint", reopened, allowed)
	}
	t.reworkBudget.Add(t.reworkBudget, reopened)
	t.coveredSinceCkpt.SetInt64(0)
	if fellBack {
		// The previous generation is now the live one: the corrupt
		// current was quarantined, so the next save writes a fresh
		// current while *.prev stays this very generation on disk.
		t.lastCkpt = restored
		t.coveredSincePrev.SetInt64(0)
	}
}

// noteTermination runs the end-of-resolution checks: exact partition (the
// covered set IS the root range) and bounded rework (all re-covered ground
// is justified by restart events).
func (t *tracker) noteTermination() {
	if gaps := t.covered.Gaps(t.root); len(gaps) > 0 {
		t.violatef("termination with unexplored gaps %v", gaps)
	}
	if t.covered.Total().Cmp(t.root.Width()) != 0 {
		t.violatef("covered measure %s != root measure %s", t.covered.Total(), t.root.Len())
	}
	if t.overlap.Cmp(t.reworkBudget) > 0 {
		t.violatef("re-covered %s units but fault events justify only %s", t.overlap, t.reworkBudget)
	}
}

var _ transport.Coordinator = (*tracker)(nil)
