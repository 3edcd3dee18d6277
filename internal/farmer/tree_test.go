package farmer_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/transport"
	"repro/internal/tsp"
	"repro/internal/worker"
)

// treeDomains is the Table 3 matrix the tree must prove optima on.
var treeDomains = []struct {
	name    string
	factory func() bb.Problem
}{
	{"flowshop", func() bb.Problem {
		return flowshop.NewProblem(flowshop.Taillard(10, 6, 13), flowshop.BoundOneMachine, flowshop.PairsAll)
	}},
	{"tsp", func() bb.Problem { return tsp.NewProblem(tsp.RandomEuclidean(9, 150, 6)) }},
	{"qap", func() bb.Problem { return qap.NewProblem(qap.Random(7, 12, 5)) }},
	{"knapsack", func() bb.Problem { return knapsack.NewProblem(knapsack.Random(16, 11)) }},
}

// TestTreePartitionComposition is the fuzz/oracle of the hierarchical
// farmer: for random tree shapes over all four domains, the interval
// algebra must compose across tiers —
//
//   - each tier's INTERVALS entries are pairwise disjoint at every
//     observation point (overlap inside a tier double-counts work);
//   - the root union only ever shrinks (work is consumed, never
//     conjured), so root union ∪ consumed ground tiles the root interval
//     at all times;
//   - every sub-farmer's table stays inside the root interval, and after
//     the termination folds every table reconciles to empty: the union of
//     all sub-farmer INTERVALS plus consumed ground tiles the root
//     interval exactly. (Mid-run a lagging subtree may briefly cover
//     ground the root already re-issued and saw consumed elsewhere — the
//     paper's duplicated-interval semantics under lazy propagation — so
//     residue is legal only until the sub's next fold, never after.)
//
// and the 2-level run must prove the same optimum as the sequential
// bb.Solve, with a real leaf path surviving the climb to the root.
func TestTreePartitionComposition(t *testing.T) {
	var totalRefills, totalSubs int64
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			dom := treeDomains[trial%len(treeDomains)]
			subtrees := 2 + rng.Intn(3)
			perSub := 1 + rng.Intn(3)

			want, _ := bb.Solve(dom.factory(), bb.Infinity)

			var now int64
			nb := core.NewNumbering(dom.factory().Shape())
			root := nb.RootRange()
			tree := farmer.NewTree(root, farmer.TreeConfig{
				Subtrees:        subtrees,
				SubUpdateEvery:  int64(2 + rng.Intn(5)),
				SubUpdatePeriod: 2 * time.Second,
				Clock:           func() int64 { return now },
			})

			var sessions []*worker.Session
			for si := 0; si < subtrees; si++ {
				for wi := 0; wi < perSub; wi++ {
					sessions = append(sessions, worker.NewSession(worker.Config{
						ID:                transport.WorkerID(fmt.Sprintf("t%d-s%d-w%d", trial, si, wi)),
						Power:             int64(1+si+wi) * 3,
						UpdatePeriodNodes: 64,
					}, tree.Endpoint(si), dom.factory()))
				}
			}

			rootSet := interval.NewSet(root)
			prevRoot := interval.NewSet(root)
			check := func(step int) {
				rootU := unionOf(t, step, "root", tree.Root.IntervalsSnapshot())
				if grown := interval.SetDiff(rootU, prevRoot); !grown.IsEmpty() {
					t.Fatalf("step %d: root INTERVALS grew by %s", step, grown)
				}
				prevRoot = rootU
				for si, sub := range tree.Subs {
					subU := unionOf(t, step, fmt.Sprintf("sub-%d", si), sub.IntervalsSnapshot())
					if stray := interval.SetDiff(subU, rootSet); !stray.IsEmpty() {
						t.Fatalf("step %d: sub-%d plans %s outside the root interval", step, si, stray)
					}
				}
			}

			const maxSteps = 300_000
			done := false
			for step := 0; step < maxSteps && !done; step++ {
				now += int64(time.Second)
				s := sessions[step%len(sessions)]
				if _, fin, err := s.Advance(64 + int64(rng.Intn(192))); err != nil {
					t.Fatal(err)
				} else if fin {
					done = tree.Root.Done()
				}
				if step%len(sessions) == 0 {
					tree.Pulse()
				}
				if step%64 == 0 {
					check(step)
				}
				if tree.Root.Done() {
					done = true
				}
			}
			if !done {
				t.Fatalf("tree did not finish within %d steps", maxSteps)
			}
			check(maxSteps)

			// Termination folds: give every sub-farmer one fold past its
			// update period so lagging subtrees learn the verdict and
			// reconcile. After that, every local table must be empty —
			// the union of sub INTERVALS plus consumed ground is exactly
			// the root interval, with zero sub residue.
			now += int64(time.Minute)
			tree.Pulse()
			for si, sub := range tree.Subs {
				if card, totalLen := sub.Inner().Size(); card != 0 {
					t.Fatalf("after termination folds, sub-%d still plans %d intervals (%s units)", si, card, totalLen)
				}
				// A fleet request after global termination must come back
				// as the §4.3 stop verdict, whatever state the subtree
				// was in when the root drained.
				probe, err := sub.RequestWork(transport.WorkRequest{Worker: "probe", Power: 1})
				if err != nil {
					t.Fatal(err)
				}
				if probe.Status != transport.WorkFinished {
					t.Errorf("sub-%d replies %v to a post-termination request, want finished", si, probe.Status)
				}
				if !sub.Finished() {
					t.Errorf("sub-%d never learned of global termination", si)
				}
			}

			best := tree.Root.Best()
			if best.Cost != want.Cost {
				t.Fatalf("tree proved %d, sequential optimum is %d", best.Cost, want.Cost)
			}
			if !best.Valid() {
				t.Fatalf("optimum cost without a leaf path at the root")
			}
			if cost := evalLeaf(t, dom.factory(), best.Path); cost != best.Cost {
				t.Fatalf("root path evaluates to %d, claimed %d", cost, best.Cost)
			}

			var refills int64
			for _, sub := range tree.Subs {
				refills += sub.Counters().Refills
			}
			if refills < 1 {
				t.Errorf("no refills at all — no subtree ever drew work")
			}
			totalRefills += refills
			totalSubs += int64(subtrees)
		})
	}
	if totalRefills <= totalSubs {
		t.Errorf("refills (%d) never exceeded first fills (%d): inter-subtree rebalancing went unexercised", totalRefills, totalSubs)
	}
}

// unionOf folds a snapshot into a Set, failing on overlapping entries —
// overlap inside one tier would double-count work.
func unionOf(t *testing.T, step int, tier string, recs []checkpoint.IntervalRecord) *interval.Set {
	t.Helper()
	s := interval.NewSet()
	for _, rec := range recs {
		if ov := s.Add(rec.Interval); ov.Sign() != 0 {
			t.Fatalf("step %d: %s INTERVALS overlap at id %d by %s units", step, tier, rec.ID, ov)
		}
	}
	return s
}

// evalLeaf prices the leaf at the end of a rank path.
func evalLeaf(t *testing.T, p bb.Problem, path []int) int64 {
	t.Helper()
	depth := p.Shape().Depth()
	if len(path) != depth {
		t.Fatalf("path length %d != depth %d", len(path), depth)
	}
	p.Reset()
	for d, r := range path {
		if r < 0 || r >= p.Shape().Branching(d) {
			t.Fatalf("rank %d out of range at depth %d", r, d)
		}
		p.Descend(r)
	}
	return p.Cost()
}
