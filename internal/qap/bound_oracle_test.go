package qap

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bb"
)

// referenceBound is the bound as it stood before the kernel was rebuilt
// around BoundChild — every term recomputed from the matrices, the
// rearrangement stage sorted on the spot — kept verbatim as the oracle: loc
// is the placed prefix (facility i on loc[i]), and the fixed cost it starts
// from is summed here instead of carried down the path.
func referenceBound(ins *Instance, loc []int, cutoff int64) int64 {
	n, depth := ins.N, len(loc)
	taken := make([]bool, n)
	var lb int64
	for i, li := range loc {
		taken[li] = true
		for j, lj := range loc {
			lb += ins.Flow[i][j] * ins.Dist[li][lj]
		}
	}
	var free []int
	for l := 0; l < n; l++ {
		if !taken[l] {
			free = append(free, l)
		}
	}
	if lb >= cutoff {
		return lb
	}
	// Fixed–free: each unplaced facility f interacts with every placed
	// facility; whatever location f ends on, it pays at least the
	// minimum over free locations. Summing per-facility minima relaxes
	// the all-different constraint, which only lowers the bound.
	for f := depth; f < n; f++ {
		min := int64(1) << 62
		for _, l := range free {
			var c int64
			for i := 0; i < depth; i++ {
				c += ins.Flow[f][i]*ins.Dist[l][loc[i]] +
					ins.Flow[i][f]*ins.Dist[loc[i]][l]
			}
			c += ins.Flow[f][f] * ins.Dist[l][l]
			if c < min {
				min = c
			}
		}
		if min < (int64(1) << 62) {
			lb += min
			if lb >= cutoff {
				return lb
			}
		}
	}
	// Free–free: the off-diagonal flows among unplaced facilities will
	// be matched one-to-one with off-diagonal distances among free
	// locations. By the rearrangement inequality the cheapest conceivable
	// matching pairs ascending flows with descending distances.
	var flowsLo, distsHi []int64
	for a := depth; a < n; a++ {
		for bIdx := depth; bIdx < n; bIdx++ {
			if a != bIdx {
				flowsLo = append(flowsLo, ins.Flow[a][bIdx])
			}
		}
	}
	for ai := range free {
		for bi := range free {
			if ai != bi {
				distsHi = append(distsHi, ins.Dist[free[ai]][free[bi]])
			}
		}
	}
	sort.Slice(flowsLo, func(i, j int) bool { return flowsLo[i] < flowsLo[j] })
	sort.Slice(distsHi, func(i, j int) bool { return distsHi[i] > distsHi[j] })
	for i := range flowsLo {
		lb += flowsLo[i] * distsHi[i]
	}
	return lb
}

// awkwardInstance draws what Random never does: asymmetric matrices,
// non-zero diagonals, and now and then a facility with no flow at all or a
// location at distance zero from everywhere.
func awkwardInstance(t *testing.T, rng *rand.Rand) *Instance {
	n := 2 + rng.Intn(7)
	gen := func() [][]int64 {
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
			if rng.Intn(5) == 0 {
				continue // a zero row
			}
			for j := range m[i] {
				m[i][j] = rng.Int63n(13)
			}
		}
		return m
	}
	ins, err := NewInstance("awkward", gen(), gen())
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// checkCutoffs holds one evaluation, bound(cutoff), to the cutoff contract
// against its exact value at ten cutoffs spread around it.
func checkCutoffs(t *testing.T, what string, exact int64, rng *rand.Rand, bound func(cutoff int64) int64) {
	t.Helper()
	if got := bound(bb.Infinity); got != exact {
		t.Fatalf("%s: %d with no cutoff, reference %d", what, got, exact)
	}
	for _, c := range []int64{0, 1, exact / 3, exact / 2, exact - 1, exact, exact + 1, 2*exact + 1,
		rng.Int63n(exact + 2), rng.Int63n(2*exact + 2)} {
		got := bound(c)
		if (got >= c) != (exact >= c) || (exact < c && got != exact) || got > exact {
			t.Fatalf("%s: %d under cutoff %d, reference %d", what, got, c, exact)
		}
	}
}

// checkTables holds everything the path carries to its definition: the free
// list and its mask, the fixed cost, and the live part of the depth's
// fixed–free table (unplaced facilities × free locations).
func checkTables(t *testing.T, p *Problem, loc []int) {
	t.Helper()
	ins, d := p.ins, len(loc)
	if p.depth != d {
		t.Fatalf("depth %d, path %v", p.depth, loc)
	}
	taken := make([]bool, ins.N)
	for _, l := range loc {
		taken[l] = true
	}
	k := 0
	for l := 0; l < ins.N; l++ {
		if (p.isFree[l] == 1) == taken[l] || p.isFree[l]&^1 != 0 {
			t.Fatalf("path %v: isFree[%d] = %d", loc, l, p.isFree[l])
		}
		if taken[l] {
			continue
		}
		if k >= len(p.free) || p.free[k] != int64(l) {
			t.Fatalf("path %v: free list %v", loc, p.free)
		}
		k++
		for f := d; f < ins.N; f++ {
			want := ins.Flow[f][f] * ins.Dist[l][l]
			for i, li := range loc {
				want += ins.Flow[f][i]*ins.Dist[l][li] + ins.Flow[i][f]*ins.Dist[li][l]
			}
			if got := p.c[p.tab.cOff[d]+(f-d)*ins.N+l]; got != want {
				t.Fatalf("path %v: table[%d][%d] = %d, want %d", loc, f, l, got, want)
			}
		}
	}
	if k != len(p.free) {
		t.Fatalf("path %v: free list %v", loc, p.free)
	}
	// Under cutoff 0 the reference returns its first term, the fixed cost.
	if want := referenceBound(ins, loc, 0); p.fixed[d] != want {
		t.Fatalf("path %v: fixed cost %d, want %d", loc, p.fixed[d], want)
	}
}

// TestBoundMatchesReference walks random prefixes of awkward instances —
// descending, backing up, resetting — and holds Bound and every BoundChild
// it passes to the reference under the cutoff contract, and the tables to
// their definition after every move.
func TestBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 60; trial++ {
		ins := awkwardInstance(t, rng)
		p := NewProblem(ins)
		var loc []int
		for move := 0; move < 40; move++ {
			switch op := rng.Intn(8); {
			case op <= 3 && len(loc) < ins.N:
				r := rng.Intn(ins.N - len(loc))
				loc = append(loc, int(p.free[r]))
				p.Descend(r)
			case op <= 5 && len(loc) > 0:
				loc = loc[:len(loc)-1]
				p.Ascend()
			case op == 6 && rng.Intn(3) == 0:
				loc = loc[:0]
				p.Reset()
			}
			checkTables(t, p, loc)
			if len(loc) == ins.N {
				if got, want := p.Cost(), ins.Cost(loc); got != want {
					t.Fatalf("path %v: cost %d, want %d", loc, got, want)
				}
				continue
			}
			checkCutoffs(t, "Bound", referenceBound(ins, loc, bb.Infinity), rng, p.Bound)
			for r := range p.free {
				child := append(loc[:len(loc):len(loc)], int(p.free[r]))
				checkCutoffs(t, "BoundChild", referenceBound(ins, child, bb.Infinity), rng,
					func(c int64) int64 { return p.BoundChild(r, c) })
			}
			checkTables(t, p, loc) // bounding children moves nothing
		}
	}
}

// TestPinnedProofCounters pins the tree of the instance the end-to-end
// benchmark's qap job solves: a bound that prunes one node more or fewer
// than the reference moves these.
func TestPinnedProofCounters(t *testing.T) {
	ins := Random(11, 20, 1)
	sol, st := bb.Solve(NewProblem(ins), 8460)
	if sol.Valid() || st != (bb.Stats{Explored: 1_008_128, Pruned: 808_119}) {
		t.Fatalf("primed with the optimum: %+v, solution %+v", st, sol)
	}
	sol, st = bb.Solve(NewProblem(ins), bb.Infinity)
	if sol.Cost != 8460 || st != (bb.Stats{Explored: 1_179_761, Pruned: 938_374, Leaves: 43, Improved: 43}) {
		t.Fatalf("cold start: %+v, cost %d", st, sol.Cost)
	}
}
