// Package tsp implements the symmetric traveling salesman problem as a
// second permutation-tree domain for the grid B&B. The paper's interval
// coding is problem-independent (§3 defines it for any regular tree); this
// package demonstrates that the whole stack — numbering, fold/unfold,
// farmer–worker runtime — runs unchanged on a different problem, and it
// supplies the TSP rows of the paper's Table 3 narrative (the famous
// Sw24978/D15112/Usa13509 resolutions were TSPs).
package tsp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bb"
	"repro/internal/tree"
)

// Instance is a symmetric TSP instance given by a full distance matrix.
type Instance struct {
	// Name identifies the instance.
	Name string
	// N is the number of cities.
	N int
	// Dist is the symmetric distance matrix; Dist[i][i] must be 0.
	Dist [][]int64
}

// NewInstance validates and wraps a distance matrix.
func NewInstance(name string, dist [][]int64) (*Instance, error) {
	n := len(dist)
	if n < 3 {
		return nil, fmt.Errorf("tsp: instance %q needs at least 3 cities, got %d", name, n)
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("tsp: instance %q row %d has %d entries, want %d", name, i, len(row), n)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("tsp: instance %q has nonzero self-distance at %d", name, i)
		}
		for j, d := range row {
			if d < 0 {
				return nil, fmt.Errorf("tsp: negative distance at (%d,%d)", i, j)
			}
			if dist[j][i] != d {
				return nil, fmt.Errorf("tsp: asymmetric distance at (%d,%d)", i, j)
			}
		}
	}
	return &Instance{Name: name, N: n, Dist: dist}, nil
}

// RandomEuclidean generates n cities uniformly in a size×size square and
// rounds pairwise Euclidean distances to integers. Deterministic per seed.
func RandomEuclidean(n int, size int64, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * float64(size)
		ys[i] = rng.Float64() * float64(size)
	}
	dist := make([][]int64, n)
	for i := range dist {
		dist[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d := int64(math.Sqrt(dx*dx+dy*dy) + 0.5)
			dist[i][j], dist[j][i] = d, d
		}
	}
	return &Instance{Name: fmt.Sprintf("euclid-%d-seed%d", n, seed), N: n, Dist: dist}
}

// TourLength evaluates the closed tour 0 → tour[0] → ... → tour[n-2] → 0,
// where tour is a permutation of cities 1..N-1.
func (ins *Instance) TourLength(tour []int) int64 {
	if len(tour) != ins.N-1 {
		panic(fmt.Sprintf("tsp: tour of length %d for %d cities", len(tour), ins.N))
	}
	var total int64
	cur := 0
	for _, c := range tour {
		total += ins.Dist[cur][c]
		cur = c
	}
	return total + ins.Dist[cur][0]
}

// Problem adapts the instance to bb.Problem. City 0 is fixed as the start
// of the tour (eliminating rotational symmetry), so the tree is the
// permutation tree of the other N-1 cities: rank r at depth d visits the
// r-th smallest unvisited city next.
type Problem struct {
	ins *Instance

	depth     int
	remaining []int // unvisited cities (ascending)
	chosen    []int
	ranks     []int
	pathLen   []int64 // cumulative length per depth
	current   []int   // current city per depth (current[0] = 0)
	minEdge   []int64 // cheapest incident edge per city (bound table)
	sumMin    int64   // sum of minEdge over remaining cities
}

// NewProblem builds the B&B adapter.
func NewProblem(ins *Instance) *Problem {
	p := &Problem{
		ins:       ins,
		remaining: make([]int, 0, ins.N-1),
		chosen:    make([]int, ins.N-1),
		ranks:     make([]int, ins.N-1),
		pathLen:   make([]int64, ins.N),
		current:   make([]int, ins.N),
		minEdge:   make([]int64, ins.N),
	}
	for c := 0; c < ins.N; c++ {
		m := int64(1) << 62
		for o := 0; o < ins.N; o++ {
			if o != c && ins.Dist[c][o] < m {
				m = ins.Dist[c][o]
			}
		}
		p.minEdge[c] = m
	}
	p.Reset()
	return p
}

// Instance returns the instance being solved.
func (p *Problem) Instance() *Instance { return p.ins }

// Shape implements bb.Problem.
func (p *Problem) Shape() tree.Shape { return tree.Permutation{N: p.ins.N - 1} }

// Reset implements bb.Problem.
func (p *Problem) Reset() {
	p.depth = 0
	p.remaining = p.remaining[:0]
	p.sumMin = 0
	for c := 1; c < p.ins.N; c++ {
		p.remaining = append(p.remaining, c)
		p.sumMin += p.minEdge[c]
	}
	p.pathLen[0] = 0
	p.current[0] = 0
}

// Descend implements bb.Problem.
func (p *Problem) Descend(rank int) {
	city := p.remaining[rank]
	copy(p.remaining[rank:], p.remaining[rank+1:])
	p.remaining = p.remaining[:len(p.remaining)-1]
	p.chosen[p.depth] = city
	p.ranks[p.depth] = rank
	p.pathLen[p.depth+1] = p.pathLen[p.depth] + p.ins.Dist[p.current[p.depth]][city]
	p.current[p.depth+1] = city
	p.sumMin -= p.minEdge[city]
	p.depth++
}

// Ascend implements bb.Problem.
func (p *Problem) Ascend() {
	p.depth--
	city := p.chosen[p.depth]
	rank := p.ranks[p.depth]
	p.remaining = p.remaining[:len(p.remaining)+1]
	copy(p.remaining[rank+1:], p.remaining[rank:])
	p.remaining[rank] = city
	p.sumMin += p.minEdge[city]
}

// Bound implements bb.Problem: path length so far, plus the cheapest
// possible departure from the current city, plus — for every unvisited city
// — the cheapest edge incident to it. The remaining tour must leave the
// current city once and each unvisited city once, so the bound is
// admissible. The computation is O(1) on incrementally maintained sums, so
// the cutoff offers nothing to skip; the exact bound is always returned.
func (p *Problem) Bound(int64) int64 {
	return p.pathLen[p.depth] + p.minEdge[p.current[p.depth]] + p.sumMin
}

// BoundChild implements bb.Problem: visiting the child's city adds one edge
// to the path and trades that city's share of sumMin for its cheapest
// departure — the same minEdge term, so the two cancel.
func (p *Problem) BoundChild(rank int, _ int64) int64 {
	return p.pathLen[p.depth] + p.ins.Dist[p.current[p.depth]][p.remaining[rank]] + p.sumMin
}

// Cost implements bb.Problem: the closed tour length.
func (p *Problem) Cost() int64 {
	return p.pathLen[p.depth] + p.ins.Dist[p.current[p.depth]][0]
}

// DecodePath implements bb.Decoder.
func (p *Problem) DecodePath(ranks []int) string {
	tour, err := TourOfPath(p.ins.N, ranks)
	if err != nil {
		return fmt.Sprintf("<invalid path: %v>", err)
	}
	return fmt.Sprint(append([]int{0}, tour...))
}

// TourOfPath converts a rank path into the visiting order of cities 1..N-1.
func TourOfPath(n int, ranks []int) ([]int, error) {
	if len(ranks) > n-1 {
		return nil, fmt.Errorf("tsp: path of length %d for %d cities", len(ranks), n)
	}
	remaining := make([]int, 0, n-1)
	for c := 1; c < n; c++ {
		remaining = append(remaining, c)
	}
	tour := make([]int, 0, len(ranks))
	for d, r := range ranks {
		if r < 0 || r >= len(remaining) {
			return nil, fmt.Errorf("tsp: rank %d out of range at depth %d", r, d)
		}
		tour = append(tour, remaining[r])
		remaining = append(remaining[:r], remaining[r+1:]...)
	}
	return tour, nil
}

var _ bb.Problem = (*Problem)(nil)
var _ bb.Decoder = (*Problem)(nil)
