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
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

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
	// Dist[a][b] is the distance from location a to location b. Neither
	// matrix may change once a Problem has been built over the instance.
	Dist [][]int64

	// The bounding kernel's read-only tables, built by the first
	// NewProblem and shared by every Problem over this instance.
	tabOnce sync.Once
	tab     *tables
}

// tables holds everything the bounding kernel reads and never writes.
type tables struct {
	// flow and dist are the matrices row-major; distT is dist transposed,
	// so the distances to a location are as contiguous as those from it.
	flow, dist, distT []int64
	// flows[flowOff[d]:flowOff[d+1]] are the off-diagonal flows among
	// facilities d..N-1, ascending: the set depends on the depth alone.
	flows   []int64
	flowOff []int
	// pairs lists every ordered pair of distinct locations by descending
	// distance; the free–free distances of any node are a subsequence.
	pairs []distPair
	// cOff[d] is where depth d's fixed–free table, N-d rows of N, starts
	// in Problem.c.
	cOff []int
}

type distPair struct {
	d    int64
	a, b int32
}

func (ins *Instance) tables() *tables {
	ins.tabOnce.Do(func() { ins.tab = buildTables(ins) })
	return ins.tab
}

func buildTables(ins *Instance) *tables {
	n := ins.N
	t := &tables{cOff: []int{0}}
	for i := 0; i < n; i++ {
		t.flow = append(t.flow, ins.Flow[i]...)
		t.dist = append(t.dist, ins.Dist[i]...)
		for j := 0; j < n; j++ {
			t.distT = append(t.distT, ins.Dist[j][i])
			if i != j {
				t.pairs = append(t.pairs, distPair{ins.Dist[i][j], int32(i), int32(j)})
			}
		}
	}
	slices.SortFunc(t.pairs, func(x, y distPair) int { return cmp.Compare(y.d, x.d) })
	for d := 0; d <= n; d++ {
		t.cOff = append(t.cOff, t.cOff[d]+(n-d)*n)
		t.flowOff = append(t.flowOff, len(t.flows))
		for a := d; a < n; a++ {
			for b := d; b < n; b++ {
				if a != b {
					t.flows = append(t.flows, ins.Flow[a][b])
				}
			}
		}
		slices.Sort(t.flows[t.flowOff[d]:])
	}
	t.flowOff = append(t.flowOff, len(t.flows))
	return t
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
// rank r picks the r-th smallest free location. A Problem is not safe for
// concurrent use; create one per worker.
//
// Everything a Problem writes while it is explored is carved out of one
// allocation padded by a cache line at both ends, and the struct is padded
// the same way: two Problems built back to back and explored by two
// goroutines share no cache line. The read-only tables belong to the
// Instance and are shared.
type Problem struct {
	_ [cacheLine]byte

	ins   *Instance
	tab   *tables
	depth int

	free   []int64 // free locations, ascending
	chosen []int64 // location chosen per depth
	ranks  []int64 // its rank at Descend time, for Ascend
	isFree []int64 // 1 for a free location: the rearrangement walk's mask
	fixed  []int64 // cost among the placed facilities, per depth
	// c holds the fixed–free table of every depth on the path
	// (tables.cOff): at depth d, row f-d is unplaced facility f, column l
	// is what f would pay on free location l against everything placed,
	// its self-loop included. Only the free columns are kept up.
	c []int64

	_ [cacheLine]byte
}

const cacheLine = 64

// NewProblem builds the adapter.
func NewProblem(ins *Instance) *Problem {
	n := ins.N
	p := &Problem{ins: ins, tab: ins.tables()}
	const pad = cacheLine / 8
	tableLen := p.tab.cOff[n]
	block := make([]int64, pad+4*n+(n+1)+tableLen+pad)[pad:]
	carve := func(k int) []int64 {
		s := block[:k:k]
		block = block[k:]
		return s
	}
	p.free, p.chosen, p.ranks, p.isFree = carve(n), carve(n), carve(n), carve(n)
	p.fixed, p.c = carve(n+1), carve(tableLen)
	p.Reset()
	return p
}

// Instance returns the instance being solved.
func (p *Problem) Instance() *Instance { return p.ins }

// Shape implements bb.Problem.
func (p *Problem) Shape() tree.Shape { return tree.Permutation{N: p.ins.N} }

// Reset implements bb.Problem.
func (p *Problem) Reset() {
	n, t := p.ins.N, p.tab
	p.depth = 0
	p.free = p.free[:n]
	for l := range p.free {
		p.free[l], p.isFree[l] = int64(l), 1
	}
	p.fixed[0] = 0
	// Nothing is placed: a facility on a location pays its self-loop.
	for f := 0; f < n; f++ {
		for l := 0; l < n; l++ {
			p.c[f*n+l] = t.flow[f*n+f] * t.dist[l*n+l]
		}
	}
}

// Descend implements bb.Problem: facility d takes its location, and every
// facility still unplaced pays its two flows with d over the distances
// between that location and each location still free — one rank-1 update of
// the depth's table into the next depth's.
func (p *Problem) Descend(rank int) {
	n, t, d := p.ins.N, p.tab, p.depth
	l := int(p.free[rank])
	copy(p.free[rank:], p.free[rank+1:])
	p.free = p.free[:len(p.free)-1]
	p.isFree[l] = 0
	p.chosen[d], p.ranks[d] = int64(l), int64(rank)
	cur, next := p.c[t.cOff[d]:], p.c[t.cOff[d+1]:]
	p.fixed[d+1] = p.fixed[d] + cur[l]
	from, to := t.dist[l*n:][:n], t.distT[l*n:][:n]
	for f := d + 1; f < n; f++ {
		out, in := t.flow[d*n+f], t.flow[f*n+d]
		src, dst := cur[(f-d)*n:][:n], next[(f-d-1)*n:][:n]
		for _, l2 := range p.free {
			dst[l2] = src[l2] + out*from[l2] + in*to[l2]
		}
	}
	p.depth++
}

// Ascend implements bb.Problem. The deeper tables are simply dead.
func (p *Problem) Ascend() {
	p.depth--
	l, rank := p.chosen[p.depth], p.ranks[p.depth]
	p.free = p.free[:len(p.free)+1]
	copy(p.free[rank+1:], p.free[rank:])
	p.free[rank] = l
	p.isFree[l] = 1
}

// Cost implements bb.Problem.
func (p *Problem) Cost() int64 { return p.fixed[p.depth] }

// Bound implements bb.Problem: fixed cost + fixed–free minima + free–free
// rearrangement bound. Every term added is non-negative, so the running sum
// is itself an admissible lower bound at every step; per the cutoff contract
// the evaluation returns the moment it reaches cutoff. The engines bound
// through BoundChild; Bound serves whoever stands on a node already.
func (p *Problem) Bound(cutoff int64) int64 {
	n, d := p.ins.N, p.depth
	lb := p.fixed[d]
	if lb >= cutoff {
		return lb
	}
	// Fixed–free: whatever location an unplaced facility ends on, it pays
	// at least its row's minimum over the free locations. Summing
	// per-facility minima relaxes the all-different constraint, which
	// only lowers the bound.
	cur := p.c[p.tab.cOff[d]:]
	for f := d; f < n; f++ {
		row := cur[(f-d)*n:][:n]
		min := int64(math.MaxInt64)
		for _, l2 := range p.free {
			if c := row[l2]; c < min {
				min = c
			}
		}
		if lb += min; lb >= cutoff {
			return lb
		}
	}
	return p.rearrange(lb, d, cutoff)
}

// BoundChild implements bb.Problem: the rank-th child is priced from this
// node's table without moving the path. Its fixed cost is one entry of
// facility d's row; its fixed–free minima are the other rows plus the two
// flow·distance terms Descend would add, taken over the free locations but
// the child's own.
func (p *Problem) BoundChild(rank int, cutoff int64) int64 {
	n, t, d := p.ins.N, p.tab, p.depth
	l := int(p.free[rank])
	cur := p.c[t.cOff[d]:]
	lb := p.fixed[d] + cur[l]
	if lb >= cutoff {
		return lb
	}
	from, to := t.dist[l*n:][:n], t.distT[l*n:][:n]
	// The minima run over every free location but l: the last one stands
	// in for it while they do (the order does not matter to a minimum).
	last := len(p.free) - 1
	p.free[rank] = p.free[last]
	for f := d + 1; f < n && lb < cutoff; f++ {
		out, in := t.flow[d*n+f], t.flow[f*n+d]
		row := cur[(f-d)*n:][:n]
		min := int64(math.MaxInt64)
		for _, l2 := range p.free[:last] {
			if c := row[l2] + out*from[l2] + in*to[l2]; c < min {
				min = c
			}
		}
		lb += min
	}
	p.free[rank] = int64(l)
	if lb >= cutoff {
		return lb
	}
	p.isFree[l] = 0
	lb = p.rearrange(lb, d+1, cutoff)
	p.isFree[l] = 1
	return lb
}

// rearrange adds the free–free stage to lb for a node of the given depth
// whose free locations are the ones isFree marks: the off-diagonal flows
// among the unplaced facilities will be matched one-to-one with the
// off-diagonal distances among the free locations, and by the rearrangement
// inequality the cheapest conceivable matching pairs ascending flows with
// descending distances. Neither side is sorted here: the flows are the
// depth's presorted run, the distances come off the instance's one
// descending order, pairs with a taken end skipped.
func (p *Problem) rearrange(lb int64, depth int, cutoff int64) int64 {
	t := p.tab
	flows := t.flows[t.flowOff[depth]:t.flowOff[depth+1]]
	if len(flows) == 0 {
		return lb
	}
	i := 0
	for _, pr := range t.pairs {
		both := p.isFree[pr.a] & p.isFree[pr.b]
		if lb += flows[i] * pr.d * both; lb >= cutoff {
			return lb
		}
		if i += int(both); i == len(flows) {
			break
		}
	}
	return lb
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
