// Package qap implements the quadratic assignment problem, the fourth
// domain of this reproduction and the problem behind the Nug30 row of the
// paper's Table 3 (Nug30 was the previous generation's famous grid
// resolution, 7 CPU-years on Condor). Assign N facilities to N locations,
// one each, minimizing Σ flow[i][j]·dist[loc(i)][loc(j)].
//
// The search tree is again a permutation tree — facility d gets the rank-th
// smallest free location at depth d — so the interval coding, the farmer
// and the peers all run unchanged. The bound is a Gilmore–Lawler-style
// relaxation without the Hungarian step: fixed–fixed costs exactly,
// fixed–free interactions by per-facility minima over free locations, and
// free–free interactions by the rearrangement inequality (smallest flows ×
// largest distances); each relaxation only drops constraints, so the bound
// is admissible.
package qap

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bb"
	"repro/internal/tree"
)

// Instance is a QAP instance with flow and distance matrices.
type Instance struct {
	// Name identifies the instance.
	Name string
	// N is the number of facilities (= locations).
	N int
	// Flow[i][j] is the traffic from facility i to facility j.
	Flow [][]int64
	// Dist[a][b] is the distance from location a to location b.
	Dist [][]int64
}

// NewInstance validates and wraps the matrices.
func NewInstance(name string, flow, dist [][]int64) (*Instance, error) {
	n := len(flow)
	if n < 2 {
		return nil, fmt.Errorf("qap: instance %q needs at least 2 facilities", name)
	}
	if len(dist) != n {
		return nil, fmt.Errorf("qap: flow is %d×, dist is %d×", n, len(dist))
	}
	for i := 0; i < n; i++ {
		if len(flow[i]) != n || len(dist[i]) != n {
			return nil, fmt.Errorf("qap: ragged matrix at row %d", i)
		}
		for j := 0; j < n; j++ {
			if flow[i][j] < 0 || dist[i][j] < 0 {
				return nil, fmt.Errorf("qap: negative entry at (%d,%d)", i, j)
			}
		}
	}
	return &Instance{Name: name, N: n, Flow: flow, Dist: dist}, nil
}

// Random generates a symmetric random instance with entries in [0, max],
// zero diagonals. Deterministic per seed.
func Random(n int, max int64, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	gen := func() [][]int64 {
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Int63n(max + 1)
				m[i][j], m[j][i] = v, v
			}
		}
		return m
	}
	ins, err := NewInstance(fmt.Sprintf("qap-%d-seed%d", n, seed), gen(), gen())
	if err != nil {
		panic(err) // generated inputs are valid by construction
	}
	return ins
}

// Cost evaluates a complete assignment: loc[i] is facility i's location.
func (ins *Instance) Cost(loc []int) int64 {
	if len(loc) != ins.N {
		panic(fmt.Sprintf("qap: assignment of length %d for %d facilities", len(loc), ins.N))
	}
	var total int64
	for i := 0; i < ins.N; i++ {
		for j := 0; j < ins.N; j++ {
			total += ins.Flow[i][j] * ins.Dist[loc[i]][loc[j]]
		}
	}
	return total
}

// Problem adapts the instance to bb.Problem: depth d assigns facility d,
// rank r picks the r-th smallest free location.
type Problem struct {
	ins *Instance

	depth   int
	loc     []int // loc[i] for i < depth
	free    []int // free locations, ascending
	chosen  []int // location chosen per depth
	ranks   []int
	fixed   []int64 // fixed-fixed cost per depth (prefix sums)
	scratch []int64
	flowsLo []int64 // scratch for the rearrangement bound
	distsHi []int64
}

// NewProblem builds the adapter.
func NewProblem(ins *Instance) *Problem {
	p := &Problem{
		ins:     ins,
		loc:     make([]int, ins.N),
		free:    make([]int, 0, ins.N),
		chosen:  make([]int, ins.N),
		ranks:   make([]int, ins.N),
		fixed:   make([]int64, ins.N+1),
		scratch: make([]int64, ins.N),
		flowsLo: make([]int64, 0, ins.N*ins.N),
		distsHi: make([]int64, 0, ins.N*ins.N),
	}
	p.Reset()
	return p
}

// Instance returns the instance being solved.
func (p *Problem) Instance() *Instance { return p.ins }

// Shape implements bb.Problem.
func (p *Problem) Shape() tree.Shape { return tree.Permutation{N: p.ins.N} }

// Reset implements bb.Problem.
func (p *Problem) Reset() {
	p.depth = 0
	p.free = p.free[:0]
	for l := 0; l < p.ins.N; l++ {
		p.free = append(p.free, l)
	}
	p.fixed[0] = 0
}

// Descend implements bb.Problem.
func (p *Problem) Descend(rank int) {
	l := p.free[rank]
	copy(p.free[rank:], p.free[rank+1:])
	p.free = p.free[:len(p.free)-1]
	f := p.depth // the facility being placed
	// Incremental fixed-fixed cost: interactions of the new facility
	// with the already placed ones (both directions) plus its self-loop.
	delta := p.ins.Flow[f][f] * p.ins.Dist[l][l]
	for i := 0; i < p.depth; i++ {
		delta += p.ins.Flow[f][i]*p.ins.Dist[l][p.loc[i]] +
			p.ins.Flow[i][f]*p.ins.Dist[p.loc[i]][l]
	}
	p.loc[f] = l
	p.chosen[p.depth] = l
	p.ranks[p.depth] = rank
	p.fixed[p.depth+1] = p.fixed[p.depth] + delta
	p.depth++
}

// Ascend implements bb.Problem.
func (p *Problem) Ascend() {
	p.depth--
	l := p.chosen[p.depth]
	rank := p.ranks[p.depth]
	p.free = p.free[:len(p.free)+1]
	copy(p.free[rank+1:], p.free[rank:])
	p.free[rank] = l
}

// Cost implements bb.Problem.
func (p *Problem) Cost() int64 { return p.fixed[p.depth] }

// Bound implements bb.Problem: fixed cost + fixed–free minima + free–free
// rearrangement bound. Every term added is non-negative, so the running sum
// is itself an admissible lower bound at every step; per the cutoff contract
// the evaluation returns the moment it reaches cutoff, which skips the
// per-facility location scans and — most importantly — the two sorts of the
// rearrangement stage for the bulk of the pruned nodes.
func (p *Problem) Bound(cutoff int64) int64 {
	lb := p.fixed[p.depth]
	if lb >= cutoff {
		return lb
	}
	n := p.ins.N
	// Fixed–free: each unplaced facility f interacts with every placed
	// facility; whatever location f ends on, it pays at least the
	// minimum over free locations. Summing per-facility minima relaxes
	// the all-different constraint, which only lowers the bound.
	for f := p.depth; f < n; f++ {
		min := int64(1) << 62
		for _, l := range p.free {
			var c int64
			for i := 0; i < p.depth; i++ {
				c += p.ins.Flow[f][i]*p.ins.Dist[l][p.loc[i]] +
					p.ins.Flow[i][f]*p.ins.Dist[p.loc[i]][l]
			}
			c += p.ins.Flow[f][f] * p.ins.Dist[l][l]
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
	p.flowsLo = p.flowsLo[:0]
	p.distsHi = p.distsHi[:0]
	for a := p.depth; a < n; a++ {
		for bIdx := p.depth; bIdx < n; bIdx++ {
			if a != bIdx {
				p.flowsLo = append(p.flowsLo, p.ins.Flow[a][bIdx])
			}
		}
	}
	for ai := range p.free {
		for bi := range p.free {
			if ai != bi {
				p.distsHi = append(p.distsHi, p.ins.Dist[p.free[ai]][p.free[bi]])
			}
		}
	}
	sort.Slice(p.flowsLo, func(i, j int) bool { return p.flowsLo[i] < p.flowsLo[j] })
	sort.Slice(p.distsHi, func(i, j int) bool { return p.distsHi[i] > p.distsHi[j] })
	for i := range p.flowsLo {
		lb += p.flowsLo[i] * p.distsHi[i]
	}
	return lb
}

// BoundChild implements bb.Problem. Every stage of Bound scans the child's
// own free set, so the child is bounded in place.
func (p *Problem) BoundChild(rank int, cutoff int64) int64 {
	return bb.BoundByDescent(p, rank, cutoff)
}

// DecodePath implements bb.Decoder: facility → location list.
func (p *Problem) DecodePath(ranks []int) string {
	loc, err := AssignmentOfPath(p.ins.N, ranks)
	if err != nil {
		return fmt.Sprintf("<invalid path: %v>", err)
	}
	return fmt.Sprint(loc)
}

// AssignmentOfPath converts a rank path into the location of each facility.
func AssignmentOfPath(n int, ranks []int) ([]int, error) {
	if len(ranks) > n {
		return nil, fmt.Errorf("qap: path of length %d for %d facilities", len(ranks), n)
	}
	free := make([]int, n)
	for l := range free {
		free[l] = l
	}
	loc := make([]int, 0, len(ranks))
	for d, r := range ranks {
		if r < 0 || r >= len(free) {
			return nil, fmt.Errorf("qap: rank %d out of range at depth %d", r, d)
		}
		loc = append(loc, free[r])
		free = append(free[:r], free[r+1:]...)
	}
	return loc, nil
}

var _ bb.Problem = (*Problem)(nil)
var _ bb.Decoder = (*Problem)(nil)
