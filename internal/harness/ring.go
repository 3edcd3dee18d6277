package harness

import (
	"math/big"
	"os"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/p2p"
)

// RingScenario puts the decentralized p2p runtime under chaos: the ring is
// driven by the deterministic lockstep driver and a partition window blocks
// all communication (steals and the termination token) across a cut for a
// range of sweeps. The conformance layer tracks every region's owner
// through the steal events and holds the ring to an *exact* partition
// invariant — work stealing moves intervals, it never loses or duplicates
// a single leaf number, and the Dijkstra–Feijen–van Gasteren token must
// never declare termination while the partition is up.
type RingScenario struct {
	// Name identifies the scenario.
	Name string
	// Seed drives victim selection; equal seeds reproduce the run.
	Seed int64
	// Factory returns a fresh Problem per call.
	Factory func() bb.Problem
	// Peers is the ring size. Default 4.
	Peers int
	// StepBudget is the per-peer slice per sweep. Default 512.
	StepBudget int64
	// PartitionFrom / PartitionUntil delimit the sweep window during
	// which the ring is cut; PartitionCut splits peers [0,cut) from
	// [cut,n).
	PartitionFrom, PartitionUntil, PartitionCut int
	// Kills schedules peer crashes; any kill (or CheckpointEvery > 0)
	// arms the §6 ring checkpointing: every peer gets its own two-file
	// snapshot store and a killed peer restarts from its own snapshot.
	Kills []RingKill
	// CheckpointEvery snapshots every live peer every so many sweeps
	// (0 with kills: only the attach-time and steal-time saves).
	CheckpointEvery int
	// MaxSweeps aborts a stuck scenario. Default 20000.
	MaxSweeps int
}

// RingKill schedules one peer crash: the peer on Peer dies before sweep
// Sweep runs — its in-memory frontier is gone — and restarts from its own
// checkpoint RestoreAfter sweeps later. RestoreAfter must be > 0: the
// DFvG token cannot complete a round through a hole in the ring, so a
// never-restored peer wedges the scenario by design.
type RingKill struct {
	Sweep, Peer, RestoreAfter int
}

func (s *RingScenario) fillDefaults() {
	if s.Peers <= 0 {
		s.Peers = 4
	}
	if s.StepBudget <= 0 {
		s.StepBudget = 512
	}
	if s.MaxSweeps <= 0 {
		s.MaxSweeps = 20000
	}
}

// view is the conformance layer's model of one peer's owned interval.
type view struct {
	a, b   *big.Int
	active bool
}

// RunRing executes one p2p scenario and returns its report.
func RunRing(sc RingScenario) (Report, error) {
	sc.fillDefaults()
	rep := newReport(sc.Name)
	rep.Baseline, _ = bb.Solve(sc.Factory(), bb.Infinity)

	nb := core.NewNumbering(sc.Factory().Shape())
	root := nb.RootRange()
	l := p2p.NewLockstep(sc.Factory, p2p.Options{Peers: sc.Peers, StepBudget: sc.StepBudget, Seed: sc.Seed})

	sweep := 0
	l.Blocked = func(a, b int) bool {
		if sweep < sc.PartitionFrom || sweep >= sc.PartitionUntil {
			return false
		}
		return (a < sc.PartitionCut) != (b < sc.PartitionCut)
	}

	var rec recorder
	violatef := rec.violatef

	// Peer crashes arm the §6 ring checkpointing: each peer gets its own
	// two-file snapshot namespace and restarts from it alone.
	reworkAllowed := len(sc.Kills) > 0
	if reworkAllowed || sc.CheckpointEvery > 0 {
		dir, err := os.MkdirTemp("", "harness-ring-*")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		store, err := checkpoint.NewStore(dir)
		if err != nil {
			return rep, err
		}
		if err := l.AttachStore(store); err != nil {
			return rep, err
		}
	}

	covered := interval.NewSet()
	overlap := new(big.Int)
	cover := func(a, b *big.Int, who int) {
		if a.Cmp(b) >= 0 {
			return
		}
		if ov := covered.Add(interval.New(a, b)); ov.Sign() != 0 {
			overlap.Add(overlap, ov)
			// With kills in the schedule, re-covering is legitimate
			// rework (bounded below); without them it is a violation
			// outright — steals alone never duplicate work.
			if !reworkAllowed {
				violatef("peer %d re-covered %s units in [%s,%s)", who, ov, a, b)
			}
		}
	}

	views := make([]view, sc.Peers)
	views[0] = view{a: root.A(), b: root.B(), active: true}
	dead := make([]bool, sc.Peers)
	processed := 0
	reconcile := func() {
		events := l.Events()
		for ; processed < len(events); processed++ {
			ev := events[processed]
			rec.tracef("s=%04d %s %d<-%d %s", ev.Sweep, ev.Kind, ev.From, ev.To, ev.Interval)
			switch ev.Kind {
			case "steal":
				thief, victim := ev.From, ev.To
				iv := ev.Interval
				v := &views[victim]
				if !v.active {
					violatef("sweep %d: steal from inactive peer %d", ev.Sweep, victim)
					continue
				}
				if v.b.Cmp(iv.B()) != 0 {
					violatef("sweep %d: peer %d donated [%s,%s) but owns up to %s", ev.Sweep, victim, iv.A(), iv.B(), v.b)
				}
				v.b = iv.A() // the victim restricted itself to the left part
				t := &views[thief]
				if t.active {
					// The thief was idle: its old region is done.
					cover(t.a, t.b, thief)
				}
				*t = view{a: iv.A(), b: iv.B(), active: true}
			case "kill":
				dead[ev.From] = true
			case "restore":
				i := ev.From
				dead[i] = false
				v := &views[i]
				riv := ev.Interval
				if riv.IsEmpty() {
					if v.active {
						violatef("sweep %d: restore of peer %d re-opened nothing but it owned [%s,%s)",
							ev.Sweep, i, v.a, v.b)
					}
					views[i] = view{}
					continue
				}
				// The wrong-search-space guard: the re-opened frontier
				// must cover everything the dead peer exclusively owned.
				if v.active && (riv.A().Cmp(v.a) > 0 || riv.B().Cmp(v.b) < 0) {
					violatef("sweep %d: restore of peer %d re-opened [%s,%s), losing part of its owned [%s,%s)",
						ev.Sweep, i, riv.A(), riv.B(), v.a, v.b)
				}
				// Rework budget: the snapshot's staleness. Ground already
				// covered is removed from the covered set (it will be
				// cleanly re-covered, the tracker idiom), and ground
				// concurrently owned by another live peer may end up
				// explored by both — both bounded by this restore event.
				budget := covered.Sub(riv)
				for j := range views {
					if j == i || !views[j].active || dead[j] {
						continue
					}
					budget.Add(budget, riv.Intersect(interval.New(views[j].a, views[j].b)).Len())
				}
				rep.ReworkBudget.Add(rep.ReworkBudget, budget)
				views[i] = view{a: riv.A(), b: riv.B(), active: true}
				rep.Restarts++
			case "terminate":
				if ev.Sweep >= sc.PartitionFrom && ev.Sweep < sc.PartitionUntil {
					violatef("sweep %d: termination declared while the ring was partitioned", ev.Sweep)
				}
				for i := range dead {
					if dead[i] {
						violatef("sweep %d: termination declared while peer %d was dead", ev.Sweep, i)
					}
				}
			}
		}
		// Progress audit: each active peer's fold must advance
		// monotonically inside its owned region. Dead peers are skipped —
		// their explorer state is the crash leftover, not ownership.
		for i := range views {
			if dead[i] {
				continue
			}
			v := &views[i]
			rem := l.Remaining(i)
			if !v.active {
				if !rem.IsEmpty() {
					violatef("sweep %d: peer %d reports work %s but owns nothing", sweep, i, rem)
				}
				continue
			}
			if rem.IsEmpty() {
				cover(v.a, v.b, i)
				v.active = false
				continue
			}
			ra, rb := rem.A(), rem.B()
			if rb.Cmp(v.b) != 0 {
				violatef("sweep %d: peer %d remaining end %s != owned end %s", sweep, i, rb, v.b)
			}
			if ra.Cmp(v.a) < 0 {
				violatef("sweep %d: peer %d fold moved backwards %s < %s", sweep, i, ra, v.a)
				continue
			}
			cover(v.a, ra, i)
			v.a = ra
		}
	}

	restoreAt := make(map[int][]int)
	terminated := false
	for sweep = 1; sweep <= sc.MaxSweeps; sweep++ {
		for _, p := range restoreAt[sweep] {
			if _, err := l.Restore(p); err != nil {
				violatef("sweep %d: restore of peer %d failed: %v", sweep, p, err)
			}
		}
		for _, k := range sc.Kills {
			if k.Sweep == sweep {
				l.Kill(k.Peer)
				restoreAt[sweep+k.RestoreAfter] = append(restoreAt[sweep+k.RestoreAfter], k.Peer)
			}
		}
		if sc.CheckpointEvery > 0 && sweep%sc.CheckpointEvery == 0 {
			if err := l.CheckpointAll(); err != nil {
				violatef("sweep %d: checkpoint failed: %v", sweep, err)
			}
			rep.Checkpoints++
		}
		done := l.Sweep()
		reconcile()
		if done {
			terminated = true
			break
		}
	}
	rep.Ticks = sweep
	rep.Finished = terminated
	if !terminated {
		violatef("ring did not terminate within %d sweeps", sc.MaxSweeps)
	}

	// Exact partition: stealing moves work, it never loses or duplicates
	// any — the covered set must be precisely the root range with zero
	// overlap (the farmer scenarios tolerate fault-justified rework; the
	// p2p ring has no faults to justify any).
	for i := range views {
		if views[i].active {
			violatef("peer %d still owns [%s,%s) after termination", i, views[i].a, views[i].b)
		}
	}
	if gaps := covered.Gaps(root); len(gaps) > 0 {
		violatef("termination with unexplored gaps %v", gaps)
	}
	if covered.Total().Cmp(root.Len()) != 0 {
		violatef("covered measure %s != root measure %s", covered.Total(), root.Len())
	}
	if !reworkAllowed {
		if overlap.Sign() != 0 {
			violatef("p2p re-covered %s units; steals must never duplicate work", overlap)
		}
	} else if overlap.Cmp(rep.ReworkBudget) > 0 {
		violatef("p2p re-covered %s units but restore events justify only %s", overlap, rep.ReworkBudget)
	}
	if err := l.StoreErr(); err != nil {
		violatef("ring checkpointing failed mid-run: %v", err)
	}

	res := l.Result()
	rep.Best = res.Best
	rec.checkIncumbent(outcome{factory: sc.Factory, best: rep.Best, baseline: rep.Baseline})
	rec.tracef("end sweeps=%d best=%d steals=%d rounds=%d", sweep, res.Best.Cost, res.Steals, res.TokenRounds)
	rep.Trace = rec.trace
	rep.Violations = rec.violations
	rep.OverlapUnits.Set(overlap)
	return rep, nil
}
