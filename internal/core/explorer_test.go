package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/knapsack"
	"repro/internal/tree"
	"repro/internal/tsp"
)

func flowshopProblem(jobs, machines int, seed int64) *flowshop.Problem {
	ins := flowshop.Taillard(jobs, machines, seed)
	return flowshop.NewProblem(ins, flowshop.BoundOneMachine, PairsUnusedOK())
}

// PairsUnusedOK returns an arbitrary pair strategy; the one-machine bound
// ignores it.
func PairsUnusedOK() flowshop.PairStrategy { return flowshop.PairsAll }

// TestExplorerMatchesSequential: exploring the whole root interval must find
// the same optimum as the plain sequential B&B and as brute force, on all
// three problem domains.
func TestExplorerMatchesSequential(t *testing.T) {
	problems := map[string]bb.Problem{
		"flowshop": flowshopProblem(7, 4, 123),
		"tsp":      tsp.NewProblem(tsp.RandomEuclidean(8, 100, 5)),
		"knapsack": knapsack.NewProblem(knapsack.Random(10, 9)),
	}
	for name, p := range problems {
		t.Run(name, func(t *testing.T) {
			brute, _ := bb.Enumerate(p)
			seq, _ := bb.Solve(p, bb.Infinity)
			if seq.Cost != brute.Cost {
				t.Fatalf("sequential B&B cost %d != brute force %d", seq.Cost, brute.Cost)
			}
			nb := NewNumbering(p.Shape())
			e := NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
			sol, _ := e.Run(1 << 12)
			if sol.Cost != brute.Cost {
				t.Fatalf("explorer cost %d != brute force %d", sol.Cost, brute.Cost)
			}
			if !sol.Valid() {
				t.Fatal("explorer returned invalid solution")
			}
		})
	}
}

// TestExplorerIntervalPartition: splitting the root range into k arbitrary
// parts and exploring them independently must cover the tree — the best of
// the parts equals the global optimum, whatever the split points.
func TestExplorerIntervalPartition(t *testing.T) {
	p := flowshopProblem(7, 5, 77)
	nb := NewNumbering(p.Shape())
	want, _ := bb.Solve(p, bb.Infinity)
	total := nb.LeafCount().Int64()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(5)
		cuts := make([]int64, 0, k+1)
		cuts = append(cuts, 0)
		for i := 0; i < k-1; i++ {
			cuts = append(cuts, rng.Int63n(total))
		}
		cuts = append(cuts, total)
		sortInt64(cuts)
		best := bb.Infinity
		for i := 0; i+1 < len(cuts); i++ {
			iv := interval.FromInt64(cuts[i], cuts[i+1])
			e := NewExplorer(p, nb, iv, bb.Infinity)
			sol, _ := e.Run(1 << 12)
			if sol.Cost < best {
				best = sol.Cost
			}
		}
		if best != want.Cost {
			t.Fatalf("trial %d cuts %v: best over parts = %d, want %d", trial, cuts, best, want.Cost)
		}
	}
}

func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestExplorerLeafCoverage: with bounding disabled (infinite upper bound
// never prunes only when bounds can exceed it... so use a problem with a
// trivial bound) every leaf number in the interval is visited exactly once.
// We use the Uniform shape with a counting problem to check exact leaf
// coverage of arbitrary intervals.
func TestExplorerLeafCoverage(t *testing.T) {
	shape := tree.Uniform{P: 5, K: 3} // 243 leaves
	nb := NewNumbering(shape)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		a := rng.Int63n(243)
		b := a + rng.Int63n(243-a) + 1
		cp := &countingProblem{shape: shape, visited: make(map[int64]int)}
		e := NewExplorer(cp, nb, interval.FromInt64(a, b), bb.Infinity)
		e.Run(64)
		if int64(len(cp.visited)) != b-a {
			t.Fatalf("[%d,%d): visited %d distinct leaves, want %d", a, b, len(cp.visited), b-a)
		}
		for n, times := range cp.visited {
			if n < a || n >= b {
				t.Fatalf("[%d,%d): visited leaf %d outside interval", a, b, n)
			}
			if times != 1 {
				t.Fatalf("[%d,%d): leaf %d visited %d times", a, b, n, times)
			}
		}
	}
}

// countingProblem records the numbers of the leaves it reaches; its bound
// never prunes. Leaf numbers are reconstructed from the path.
type countingProblem struct {
	shape   tree.Uniform
	path    []int
	visited map[int64]int
}

func (c *countingProblem) Shape() tree.Shape { return c.shape }
func (c *countingProblem) Reset()            { c.path = c.path[:0] }
func (c *countingProblem) Descend(rank int)  { c.path = append(c.path, rank) }
func (c *countingProblem) Ascend()           { c.path = c.path[:len(c.path)-1] }
func (c *countingProblem) Bound(int64) int64 { return 0 }
func (c *countingProblem) BoundChild(rank int, cutoff int64) int64 {
	return bb.BoundByDescent(c, rank, cutoff)
}
func (c *countingProblem) Cost() int64 {
	var n int64
	for _, r := range c.path {
		n = n*int64(c.shape.K) + int64(r)
	}
	c.visited[n]++
	return 1 // constant cost: nothing prunes, everything is visited
}

// TestExplorerStepBudget: tiny step budgets must reach the same result as
// one big run, and Step must report done exactly once at the end.
func TestExplorerStepBudget(t *testing.T) {
	p := flowshopProblem(6, 4, 3)
	nb := NewNumbering(p.Shape())
	ref := NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
	refSol, refStats := ref.Run(1 << 20)

	e := NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
	var total int64
	for {
		n, done := e.Step(7)
		total += n
		if done {
			break
		}
	}
	if got := e.Best(); got.Cost != refSol.Cost {
		t.Fatalf("stepped cost %d != reference %d", got.Cost, refSol.Cost)
	}
	if total != refStats.Explored {
		t.Fatalf("stepped explored %d != reference %d", total, refStats.Explored)
	}
	if n, done := e.Step(100); n != 0 || !done {
		t.Fatalf("Step after done = (%d,%v), want (0,true)", n, done)
	}
}

// TestExplorerRemainingShrinks: the folded Remaining interval starts at the
// assigned beginning, only moves forward, and ends empty.
func TestExplorerRemainingShrinks(t *testing.T) {
	p := flowshopProblem(7, 4, 55)
	nb := NewNumbering(p.Shape())
	iv := nb.RootRange()
	e := NewExplorer(p, nb, iv, bb.Infinity)
	prev := e.Remaining()
	if prev.A().Sign() != 0 {
		t.Fatalf("initial remaining %v does not start at 0", prev)
	}
	for {
		_, done := e.Step(50)
		cur := e.Remaining()
		if cur.A().Cmp(prev.A()) < 0 {
			t.Fatalf("remaining beginning moved backwards: %v after %v", cur, prev)
		}
		if cur.B().Cmp(iv.B()) != 0 && !cur.IsEmpty() {
			t.Fatalf("remaining end drifted: %v", cur)
		}
		prev = cur
		if done {
			break
		}
	}
	if !e.Remaining().IsEmpty() {
		t.Fatalf("remaining after done = %v, want empty", e.Remaining())
	}
}

// TestExplorerRestrictEnd: shrinking the end mid-run (the load-balancing
// intersection, §4.2) must leave the union of both halves' work equal to
// the whole: worker A explores [0,C) after restriction, worker B explores
// [C,total), and together they find the global optimum.
func TestExplorerRestrictEnd(t *testing.T) {
	p := flowshopProblem(7, 5, 91)
	nb := NewNumbering(p.Shape())
	want, _ := bb.Solve(p, bb.Infinity)
	total := nb.LeafCount().Big()

	a := NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
	// Explore a little, then donate the right half of what remains.
	a.Step(100)
	rem := a.Remaining()
	mid := new(big.Int).Add(rem.A(), rem.B())
	mid.Rsh(mid, 1)
	holder, donated := rem.SplitAt(interval.NumBig(mid))
	a.Restrict(holder)
	aSol, _ := a.Run(1 << 12)

	b := NewExplorer(p, nb, donated, bb.Infinity)
	bSol, _ := b.Run(1 << 12)

	best := aSol.Cost
	if bSol.Cost < best {
		best = bSol.Cost
	}
	if best != want.Cost {
		t.Fatalf("A(%v)+B(%v) best = %d, want %d (total %s)", holder, donated, best, want.Cost, total)
	}
}

// TestExplorerRestrictBeginning: advancing the beginning (duplicated
// interval partly explored elsewhere, §4.1) skips the overlap.
func TestExplorerRestrictBeginning(t *testing.T) {
	shape := tree.Uniform{P: 4, K: 3} // 81 leaves
	nb := NewNumbering(shape)
	cp := &countingProblem{shape: shape, visited: make(map[int64]int)}
	e := NewExplorer(cp, nb, interval.FromInt64(0, 81), bb.Infinity)
	e.Restrict(interval.FromInt64(30, 81))
	e.Run(16)
	if len(cp.visited) != 51 {
		t.Fatalf("visited %d leaves, want 51", len(cp.visited))
	}
	for n := range cp.visited {
		if n < 30 {
			t.Fatalf("visited leaf %d below restricted beginning", n)
		}
	}
}

// TestExplorerAdoptBest: a shared incumbent prunes exactly like a locally
// found one — priming with the known optimum still proves optimality and
// explores no more nodes than the unprimed run.
func TestExplorerAdoptBest(t *testing.T) {
	p := flowshopProblem(8, 4, 19)
	nb := NewNumbering(p.Shape())
	opt, statsCold := bb.Solve(p, bb.Infinity)

	e := NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
	e.AdoptBest(opt.Cost)
	sol, statsPrimed := e.Run(1 << 14)
	if sol.Valid() && sol.Cost != opt.Cost {
		t.Fatalf("primed run found %d, optimum is %d", sol.Cost, opt.Cost)
	}
	if statsPrimed.Explored > statsCold.Explored {
		t.Fatalf("primed run explored %d > cold run %d", statsPrimed.Explored, statsCold.Explored)
	}
	// Adopting a worse bound must not overwrite a better incumbent.
	e.AdoptBest(opt.Cost + 100)
	if e.Best().Cost != minInt64(sol.Cost, opt.Cost) {
		t.Fatalf("AdoptBest with worse cost changed incumbent to %d", e.Best().Cost)
	}
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestExplorerOnImprove: the improvement hook fires with strictly
// decreasing costs and the last one equals the final best.
func TestExplorerOnImprove(t *testing.T) {
	p := flowshopProblem(7, 4, 7)
	nb := NewNumbering(p.Shape())
	e := NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
	var seen []int64
	e.OnImprove = func(s bb.Solution) {
		seen = append(seen, s.Cost)
	}
	sol, stats := e.Run(1 << 12)
	if int64(len(seen)) != stats.Improved {
		t.Fatalf("hook fired %d times, stats say %d", len(seen), stats.Improved)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] >= seen[i-1] {
			t.Fatalf("improvements not strictly decreasing: %v", seen)
		}
	}
	if len(seen) > 0 && seen[len(seen)-1] != sol.Cost {
		t.Fatalf("last improvement %d != final best %d", seen[len(seen)-1], sol.Cost)
	}
}

// TestExplorerReassign: an explorer reused across work units keeps its
// incumbent and accumulates statistics.
func TestExplorerReassign(t *testing.T) {
	p := flowshopProblem(6, 4, 31)
	nb := NewNumbering(p.Shape())
	want, _ := bb.Solve(p, bb.Infinity)
	total := nb.LeafCount().Int64()

	e := NewExplorer(p, nb, interval.FromInt64(0, total/3), bb.Infinity)
	e.Run(1 << 12)
	e.Reassign(interval.FromInt64(total/3, 2*total/3))
	e.Run(1 << 12)
	e.Reassign(interval.FromInt64(2*total/3, total))
	sol, _ := e.Run(1 << 12)
	if sol.Cost != want.Cost {
		t.Fatalf("reassigned explorer best %d, want %d", sol.Cost, want.Cost)
	}
}

// TestExplorerEmptyInterval: an empty assignment is done immediately.
func TestExplorerEmptyInterval(t *testing.T) {
	p := flowshopProblem(5, 3, 1)
	nb := NewNumbering(p.Shape())
	e := NewExplorer(p, nb, interval.FromInt64(10, 10), bb.Infinity)
	if !e.Done() {
		t.Fatal("explorer over empty interval not done")
	}
	if n, done := e.Step(10); n != 0 || !done {
		t.Fatalf("Step = (%d,%v), want (0,true)", n, done)
	}
}
