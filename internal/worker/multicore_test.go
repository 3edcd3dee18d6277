package worker

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/knapsack"
	"repro/internal/transport"
	"repro/internal/tsp"
)

// checkShardTiling holds the shard engine to its fold contract between two
// Advance calls: the shard remainders are pairwise disjoint, they lie
// inside the registered interval, and the engine's fold is their exact
// covering interval ([min frontier, registered end)). The snapshot is taken
// under stealMu, so it holds under the goroutine scheduler too: shards keep
// exploring while it is read, but no work moves between them. It returns
// the union of the remainders for the caller's monotone-consumption check.
func checkShardTiling(t *testing.T, g *shardEngine) *interval.Set {
	t.Helper()
	g.stealMu.Lock()
	registered := interval.Of(g.lo, g.hi)
	rems := g.remainders()
	fold := foldCover(rems, g.hi)
	g.stealMu.Unlock()
	if g.wake == nil {
		// The stepped engine is still between calls: its own fold must
		// read the same.
		if got := g.Remaining(); got.String() != fold.String() {
			t.Fatalf("engine fold %v != covering interval %v of %v", got, fold, rems)
		}
	}
	set := interval.NewSet()
	var minA *big.Int
	for _, rem := range rems {
		if ov := set.Add(rem); ov.Sign() != 0 {
			t.Fatalf("shard remainders overlap by %s units: %v", ov, rems)
		}
		if !registered.ContainsInterval(rem) {
			t.Fatalf("shard remainder %v outside registered interval %v", rem, registered)
		}
		if a := rem.A(); minA == nil || a.Cmp(minA) < 0 {
			minA = a
		}
	}
	if minA == nil {
		if !fold.IsEmpty() {
			t.Fatalf("no shard remainders but fold %v is not empty", fold)
		}
		return set
	}
	if fold.A().Cmp(minA) != 0 {
		t.Fatalf("fold %v does not start at the minimum shard frontier %s", fold, minA)
	}
	if fold.B().Cmp(registered.B()) != 0 {
		t.Fatalf("fold %v does not end at the registered end %s", fold, registered.B())
	}
	return set
}

// multicoreCase is one (instance, cores, seed) triple of the cross-check.
type multicoreCase struct {
	name    string
	factory func() bb.Problem
	cores   int
	seed    int64
}

// randomCases draws ~n triples across three problem domains.
func randomCases(n int) []multicoreCase {
	rng := rand.New(rand.NewSource(7))
	var out []multicoreCase
	for i := 0; i < n; i++ {
		cores := 2 + rng.Intn(4) // 2..5 shards
		seed := rng.Int63n(1 << 30)
		var factory func() bb.Problem
		var domain string
		switch i % 3 {
		case 0:
			ins := knapsack.Random(12+rng.Intn(7), seed)
			factory = func() bb.Problem { return knapsack.NewProblem(ins) }
			domain = "knapsack"
		case 1:
			ins := flowshop.Taillard(7+rng.Intn(3), 4+rng.Intn(2), seed)
			factory = func() bb.Problem {
				return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
			}
			domain = "flowshop"
		case 2:
			ins := tsp.RandomEuclidean(7+rng.Intn(2), 100, seed)
			factory = func() bb.Problem { return tsp.NewProblem(ins) }
			domain = "tsp"
		}
		out = append(out, multicoreCase{
			name:    fmt.Sprintf("%02d-%s-c%d", i, domain, cores),
			factory: factory,
			cores:   cores,
			seed:    seed,
		})
	}
	return out
}

// TestMulticoreCrossCheck runs ~50 random (instance, cores, seed) triples:
// two sharded sessions share a farmer (so the partitioning operator splits
// and restricts real multicore folds), the final incumbent must equal the
// sequential bb.Solve oracle, and around every protocol step the union of
// shard remainders must tile the registered interval — disjoint shards,
// exact covering fold, and a consumed region that only ever grows within
// one assignment.
func TestMulticoreCrossCheck(t *testing.T) {
	for _, tc := range randomCases(51) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { crossCheck(t, tc, false) })
	}
}

// TestConcurrentShardTiling is the cross-check under the goroutine
// scheduler: the sessions are driven the way RunParallel drives them, and
// the tiling contract is checked under stealMu while the shards keep
// exploring on their own goroutines.
func TestConcurrentShardTiling(t *testing.T) {
	for i, tc := range randomCases(51) {
		if i%5 != 0 {
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) { crossCheck(t, tc, true) })
	}
}

func crossCheck(t *testing.T, tc multicoreCase, concurrent bool) {
	want, _ := bb.Solve(tc.factory(), bb.Infinity)
	nb := core.NewNumbering(tc.factory().Shape())
	f := farmer.New(nb.RootRange())
	rng := rand.New(rand.NewSource(tc.seed))
	type tracked struct {
		sess     *Session
		requests int64
		consumed *interval.Set
	}
	var members []*tracked
	for i := 0; i < 2; i++ {
		sess := NewShardedSession(Config{
			ID:                transport.WorkerID(fmt.Sprintf("mc%d", i)),
			Power:             1 + int64(i),
			Cores:             tc.cores,
			UpdatePeriodNodes: 64 + rng.Int63n(256),
		}, f, tc.factory)
		sess.concurrent = concurrent
		defer sess.stop()
		members = append(members, &tracked{sess: sess, requests: -1, consumed: interval.NewSet()})
	}
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			t.Fatal("resolution did not terminate")
		}
		allFinished := true
		for _, m := range members {
			if m.sess.Finished() {
				continue
			}
			allFinished = false
			if _, _, err := m.sess.Advance(32 + rng.Int63n(512)); err != nil {
				t.Fatalf("advance: %v", err)
			}
			if m.sess.cur == nil {
				continue // never assigned (resolution may already be over)
			}
			g, ok := m.sess.cur.ex.(*shardEngine)
			if !ok {
				t.Fatalf("session engine is %T, want *shardEngine", m.sess.cur.ex)
			}
			if g.wake != nil != concurrent {
				t.Fatalf("session engine concurrent = %v, want %v", g.wake != nil, concurrent)
			}
			remainders := checkShardTiling(t, g)
			if m.sess.Messages.Requests != m.requests {
				// Fresh assignment: restart the monotone check.
				m.requests = m.sess.Messages.Requests
				m.consumed = interval.NewSet()
			} else {
				// Within one assignment, no remainder may cover
				// ground the engine had already consumed.
				for _, rem := range remainders.Intervals() {
					if regrown := m.consumed.Clone().Sub(rem); regrown.Sign() != 0 {
						t.Fatalf("remainder %v re-grew over %s consumed units", rem, regrown)
					}
				}
			}
			// consumed = registered \ remainders, accumulated (the
			// registered interval itself may shrink through farmer
			// restricts; once consumed, always consumed). Only this
			// goroutine writes lo and hi (Reassign, Restrict).
			registered := interval.Of(g.lo, g.hi)
			step := interval.NewSet(registered.Clone())
			for _, rem := range remainders.Intervals() {
				step.Sub(rem)
			}
			for _, iv := range step.Intervals() {
				m.consumed.Add(iv)
			}
		}
		if allFinished {
			break
		}
	}
	got := f.Best()
	if got.Cost != want.Cost {
		t.Fatalf("parallel incumbent %d != sequential %d", got.Cost, want.Cost)
	}
	if want.Valid() && !got.Valid() {
		t.Fatal("sequential found a solution but the sharded workers have none")
	}
}

// TestRunParallelMatchesSequential drives the goroutine runtime end to end
// against a real farmer: the concurrent shard engine must prove the same
// optimum as the sequential solver, on several core counts.
func TestRunParallelMatchesSequential(t *testing.T) {
	ins := flowshop.Taillard(9, 5, 11)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	want, _ := bb.Solve(factory(), bb.Infinity)
	for _, cores := range []int{1, 2, 4} {
		cores := cores
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			nb := core.NewNumbering(factory().Shape())
			f := farmer.New(nb.RootRange())
			res, err := RunParallel(context.Background(), Config{
				ID:                "par",
				Power:             1,
				Cores:             cores,
				UpdatePeriodNodes: 512,
				StepSize:          256,
			}, f, factory)
			if err != nil {
				t.Fatalf("RunParallel: %v", err)
			}
			if best := f.Best(); best.Cost != want.Cost {
				t.Fatalf("cores=%d: incumbent %d != sequential %d", cores, best.Cost, want.Cost)
			}
			if res.Stats.Explored == 0 {
				t.Fatal("no nodes explored")
			}
			if !f.Done() {
				t.Fatal("farmer not done after RunParallel returned")
			}
		})
	}
}

// TestShardEngineStealsRebalance pins the internal load balancer under both
// schedulers: on a lopsided two-shard assignment the dry shard must steal
// from its sibling rather than idle, so both end up contributing explored
// nodes.
func TestShardEngineStealsRebalance(t *testing.T) {
	// ~25k sequential nodes: shard 0's tile outlasts its first slice, so
	// under either scheduler there is something left to steal.
	ins := flowshop.Taillard(12, 6, 5)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	nb := core.NewNumbering(factory().Shape())
	root := nb.RootRange()
	want, _ := bb.Solve(factory(), bb.Infinity)
	for _, goroutines := range []bool{false, true} {
		t.Run(map[bool]string{false: "stepped", true: "goroutines"}[goroutines], func(t *testing.T) {
			g := newShardEngine([]bb.Problem{factory(), factory()}, 128, func(bb.Solution) {})
			defer g.stop()
			g.Reassign(root)
			// Kill shard 1's tile outright: it must steal from shard 0.
			g.shards[1].ex.Reassign(interval.Interval{})
			if goroutines {
				// Hold shard 0 until shard 1 is inside its steal (it
				// holds stealMu), so shard 0 cannot finish its tile first.
				g.shards[0].mu.Lock()
				g.start(128)
				for g.stealMu.TryLock() {
					g.stealMu.Unlock()
					time.Sleep(time.Millisecond)
				}
				g.shards[0].mu.Unlock()
			}
			for done, i := false, 0; !done; i++ {
				if i > 1_000_000 {
					t.Fatal("engine did not finish")
				}
				_, done = g.Step(64)
			}
			g.stop()
			if st := g.shards[1].ex.Stats(); st.Explored == 0 {
				t.Fatal("dry shard never stole any work")
			}
			if g.Best().Cost != want.Cost {
				t.Fatalf("engine best %d != sequential %d", g.Best().Cost, want.Cost)
			}
		})
	}
}
