package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bb"
	"repro/internal/interval"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/tree"
)

// TestExplorerRandomRestrictFuzz is the torture test of the intersection
// mechanics: one explorer owns the whole tree but is randomly Restricted
// mid-run (end shrinks, like load balancing); the carved-off pieces are
// explored by fresh explorers; the union must still find the global
// optimum, whatever the interleaving.
func TestExplorerRandomRestrictFuzz(t *testing.T) {
	p := flowshopProblem(8, 5, 5)
	nb := NewNumbering(p.Shape())
	want, _ := bb.Solve(p, bb.Infinity)
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		type pending struct{ iv interval.Interval }
		queue := []pending{{nb.RootRange()}}
		best := bb.Infinity
		for len(queue) > 0 {
			work := queue[0]
			queue = queue[1:]
			e := NewExplorer(p, nb, work.iv, best)
			for !e.Done() {
				e.Step(int64(1 + rng.Intn(200)))
				// Randomly steal the right part of what remains.
				if rng.Intn(3) == 0 {
					rem := e.Remaining()
					if rem.IsEmpty() {
						continue
					}
					span := new(big.Int).Sub(rem.B(), rem.A())
					if span.Sign() <= 0 {
						continue
					}
					cut := new(big.Int).Rand(rng, span)
					cut.Add(cut, rem.A())
					keep, donated := rem.SplitAt(interval.NumBig(cut))
					e.Restrict(keep)
					if !donated.IsEmpty() {
						queue = append(queue, pending{donated})
					}
				}
			}
			if b := e.Best(); b.Cost < best {
				best = b.Cost
			}
		}
		if best != want.Cost {
			t.Fatalf("trial %d: union of restricted explorations found %d, want %d", trial, best, want.Cost)
		}
	}
}

// TestExplorerBinaryTreeDomain: the engine on the knapsack's binary tree
// with interval partitions — binary shapes exercise eq. (2) weights through
// the whole stack.
func TestExplorerBinaryTreeDomain(t *testing.T) {
	ins := knapsack.Random(16, 21)
	factory := func() bb.Problem { return knapsack.NewProblem(ins) }
	want, _ := bb.Solve(factory(), bb.Infinity)
	nb := NewNumbering(factory().Shape())
	total := nb.LeafCount().Int64() // 2^16
	// Four quarters explored independently.
	best := bb.Infinity
	for q := int64(0); q < 4; q++ {
		iv := interval.FromInt64(q*total/4, (q+1)*total/4)
		e := NewExplorer(factory(), nb, iv, bb.Infinity)
		sol, _ := e.Run(1 << 12)
		if sol.Cost < best {
			best = sol.Cost
		}
	}
	if best != want.Cost {
		t.Fatalf("quartered binary exploration best %d, want %d", best, want.Cost)
	}
}

// TestExplorerQAPDomain: the fourth domain through the interval engine with
// a mid-run restriction.
func TestExplorerQAPDomain(t *testing.T) {
	ins := qap.Random(7, 15, 9)
	factory := func() bb.Problem { return qap.NewProblem(ins) }
	want, _ := bb.Solve(factory(), bb.Infinity)
	nb := NewNumbering(factory().Shape())

	e := NewExplorer(factory(), nb, nb.RootRange(), bb.Infinity)
	e.Step(50)
	rem := e.Remaining()
	mid := new(big.Int).Add(rem.A(), rem.B())
	mid.Rsh(mid, 1)
	keep, donated := rem.SplitAt(interval.NumBig(mid))
	e.Restrict(keep)
	sol1, _ := e.Run(1 << 12)

	e2 := NewExplorer(factory(), nb, donated, bb.Infinity)
	sol2, _ := e2.Run(1 << 12)

	best := sol1.Cost
	if sol2.Cost < best {
		best = sol2.Cost
	}
	if best != want.Cost {
		t.Fatalf("split QAP exploration best %d, want %d", best, want.Cost)
	}
}

// TestUnfoldMatchesExplorerFrontier: the explicit Unfold list and the
// engine's internal selective descent agree — exploring unfolded nodes one
// by one visits exactly the same leaves as exploring the interval directly.
func TestUnfoldMatchesExplorerFrontier(t *testing.T) {
	shape := tree.Uniform{P: 5, K: 3}
	nb := NewNumbering(shape)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		a := rng.Int63n(243)
		b := a + rng.Int63n(243-a) + 1
		iv := interval.FromInt64(a, b)

		direct := &countingProblem{shape: shape, visited: make(map[int64]int)}
		NewExplorer(direct, nb, iv, bb.Infinity).Run(64)

		perNode := &countingProblem{shape: shape, visited: make(map[int64]int)}
		for _, ref := range Unfold(nb, iv) {
			sub := NewExplorer(perNode, nb, nb.Range(ref.Ranks), bb.Infinity)
			sub.Run(64)
		}
		if len(direct.visited) != len(perNode.visited) {
			t.Fatalf("[%d,%d): direct visited %d leaves, per-node %d", a, b, len(direct.visited), len(perNode.visited))
		}
		for n := range direct.visited {
			if perNode.visited[n] != 1 {
				t.Fatalf("[%d,%d): leaf %d visited %d times via unfold", a, b, n, perNode.visited[n])
			}
		}
	}
}
