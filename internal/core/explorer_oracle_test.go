package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bb"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/knapsack"
	"repro/internal/tsp"
)

// This file pins the interior-mode walk to the seed explorer: referenceWalk
// is a faithful port of the original Step loop, which computes and compares
// the child number and range on every visited node (no interior fast path).
// The randomized oracle asserts byte-identical statistics — Explored,
// Pruned, Leaves, Improved — and the same best solution over random
// problems × intervals, with the new explorer additionally driven through
// random step slicing and per-slice Remaining() folds to exercise the lazy
// number materialization at every boundary.

// referenceWalk explores [lo, hi) with the seed algorithm and returns the
// best solution and statistics.
func referenceWalk(p bb.Problem, nb *Numbering, iv interval.Interval, initialUpper int64) (bb.Solution, bb.Stats) {
	clamped := iv.Intersect(nb.RootRange())
	lo, hi := clamped.A(), clamped.B()
	best := bb.Solution{Cost: initialUpper}
	var stats bb.Stats
	if clamped.IsEmpty() {
		return best, stats
	}
	depthMax := nb.Depth()
	cursor := make([]int, depthMax+1)
	num := make([]*big.Int, depthMax+1)
	for d := range num {
		num[d] = new(big.Int)
	}
	path := make([]int, depthMax+1)
	childNum := new(big.Int)
	childEnd := new(big.Int)
	depth := 0
	p.Reset()
	for {
		if cursor[depth] >= nb.shape.Branching(depth) {
			cursor[depth] = 0
			if depth == 0 {
				break
			}
			depth--
			p.Ascend()
			continue
		}
		r := cursor[depth]
		cursor[depth]++
		childDepth := depth + 1
		childNum.SetInt64(int64(r))
		childNum.Mul(childNum, nb.weights[childDepth].Big())
		childNum.Add(childNum, num[depth])
		if childNum.Cmp(hi) >= 0 {
			break
		}
		childEnd.Add(childNum, nb.weights[childDepth].Big())
		if childEnd.Cmp(lo) <= 0 {
			continue
		}
		// Same owner-counts rule as the explorer: a node straddling lo
		// was charged to whoever explored the ground before lo.
		counted := childNum.Cmp(lo) >= 0
		if counted {
			stats.Explored++
		}
		path[depth] = r
		p.Descend(r)
		if childDepth == depthMax {
			stats.Leaves++
			if c := p.Cost(); c < best.Cost {
				best.Cost = c
				best.Path = append(best.Path[:0], path[:childDepth]...)
				stats.Improved++
			}
			p.Ascend()
			continue
		}
		if b := p.Bound(best.Cost); b >= best.Cost {
			if counted {
				stats.Pruned++
			}
			p.Ascend()
			continue
		}
		num[childDepth].Set(childNum)
		depth++
	}
	for depth > 0 {
		depth--
		p.Ascend()
	}
	return best, stats
}

// oracleCase describes one randomized scenario.
type oracleCase struct {
	name    string
	factory func() bb.Problem
}

// TestExplorerInteriorModeOracle: the tentpole equivalence oracle — ~200
// random (instance, interval) scenarios across three tree shapes, stats and
// best compared field by field against the reference walk.
func TestExplorerInteriorModeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 200; trial++ {
		var c oracleCase
		switch trial % 3 {
		case 0:
			jobs := 5 + rng.Intn(4)
			machines := 3 + rng.Intn(3)
			ins := flowshop.Taillard(jobs, machines, int64(trial+1))
			c = oracleCase{"flowshop", func() bb.Problem {
				return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
			}}
		case 1:
			ins := knapsack.Random(9+rng.Intn(5), int64(trial+1))
			c = oracleCase{"knapsack", func() bb.Problem { return knapsack.NewProblem(ins) }}
		case 2:
			ins := tsp.RandomEuclidean(6+rng.Intn(3), 200, int64(trial+1))
			c = oracleCase{"tsp", func() bb.Problem { return tsp.NewProblem(ins) }}
		}
		nb := NewNumbering(c.factory().Shape())
		total := nb.LeafCount().Big()

		// Random interval, occasionally the full root range; random
		// initial incumbent, occasionally infinite.
		a := new(big.Int).Rand(rng, total)
		span := new(big.Int).Sub(total, a)
		bEnd := new(big.Int).Rand(rng, span)
		bEnd.Add(bEnd, a)
		bEnd.Add(bEnd, big.NewInt(1))
		if trial%7 == 0 {
			a.SetInt64(0)
			bEnd.Set(total)
		}
		iv := interval.New(a, bEnd)
		initialUpper := bb.Infinity
		if trial%5 == 0 {
			seed, _ := bb.Solve(c.factory(), bb.Infinity)
			initialUpper = seed.Cost + int64(rng.Intn(3))
		}

		wantSol, wantStats := referenceWalk(c.factory(), nb, iv, initialUpper)

		// Drive the new explorer in random step slices, folding Remaining
		// at every slice edge so the lazy interior-number reconstruction
		// is exercised mid-subtree, and verify the fold is monotone.
		e := NewExplorer(c.factory(), nb, iv, initialUpper)
		prevA := new(big.Int).Set(a)
		for {
			_, done := e.Step(int64(1 + rng.Intn(64)))
			rem := e.Remaining()
			if !rem.IsEmpty() {
				if rem.A().Cmp(prevA) < 0 {
					t.Fatalf("trial %d (%s) %v: Remaining moved backwards", trial, c.name, iv)
				}
				prevA.Set(rem.A())
			}
			if done {
				break
			}
		}
		gotSol, gotStats := e.Best(), e.Stats()

		if gotStats != wantStats {
			t.Fatalf("trial %d (%s) %v upper %d: stats %+v, reference %+v",
				trial, c.name, iv, initialUpper, gotStats, wantStats)
		}
		if gotSol.Cost != wantSol.Cost {
			t.Fatalf("trial %d (%s) %v: best %d, reference %d", trial, c.name, iv, gotSol.Cost, wantSol.Cost)
		}
		if wantSol.Valid() {
			if len(gotSol.Path) != len(wantSol.Path) {
				t.Fatalf("trial %d (%s): path length %d, reference %d", trial, c.name, len(gotSol.Path), len(wantSol.Path))
			}
			for i := range wantSol.Path {
				if gotSol.Path[i] != wantSol.Path[i] {
					t.Fatalf("trial %d (%s): path %v, reference %v", trial, c.name, gotSol.Path, wantSol.Path)
				}
			}
		}
	}
}

// TestExplorerRestrictInsideInterior: a Restrict landing while the walk is
// deep inside an interior-mode subtree must materialize the lazily skipped
// numbers correctly — restricting to exactly the currently remaining
// interval is a semantic no-op and must reproduce the unrestricted
// statistics; restricting to a shrunk end must match a reference walk over
// the union of the explored prefix and the kept part.
func TestExplorerRestrictInsideInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ins := flowshop.Taillard(8, 4, 11)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	nb := NewNumbering(factory().Shape())

	for trial := 0; trial < 40; trial++ {
		ref := NewExplorer(factory(), nb, nb.RootRange(), bb.Infinity)
		refSol, refStats := ref.Run(1 << 14)

		e := NewExplorer(factory(), nb, nb.RootRange(), bb.Infinity)
		// Walk a random distance in, then apply the no-op restriction.
		e.Step(int64(1 + rng.Intn(500)))
		e.Restrict(e.Remaining())
		sol, stats := e.Run(1 << 14)
		if stats != refStats {
			t.Fatalf("trial %d: no-op Restrict changed stats: %+v vs %+v", trial, stats, refStats)
		}
		if sol.Cost != refSol.Cost {
			t.Fatalf("trial %d: no-op Restrict changed best: %d vs %d", trial, sol.Cost, refSol.Cost)
		}

		// Shrink the end mid-run; both halves together must equal the
		// whole (the load-balancing invariant), verified via the oracle
		// reference on the donated part.
		e2 := NewExplorer(factory(), nb, nb.RootRange(), bb.Infinity)
		e2.Step(int64(1 + rng.Intn(500)))
		rem := e2.Remaining()
		if rem.IsEmpty() {
			continue
		}
		mid := new(big.Int).Add(rem.A(), rem.B())
		mid.Rsh(mid, 1)
		keep, donated := rem.SplitAt(interval.NumBig(mid))
		e2.Restrict(keep)
		aSol, _ := e2.Run(1 << 14)
		bSol, _ := referenceWalk(factory(), nb, donated, bb.Infinity)
		best := aSol.Cost
		if bSol.Cost < best {
			best = bSol.Cost
		}
		if best != refSol.Cost {
			t.Fatalf("trial %d: restricted halves best %d, want %d", trial, best, refSol.Cost)
		}
	}
}
