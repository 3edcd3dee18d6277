// Package knapsack implements the 0/1 knapsack problem over a binary
// search tree. It exists to exercise the binary-tree weight formula of the
// paper (eq. 2: weight(n) = 2^(P-depth)) in the interval coding — the other
// domains in this repository are permutation trees (eq. 3) — and to show
// that maximization problems plug into the minimizing engines by negating
// their objective.
package knapsack

import (
	"fmt"
	"math/rand"

	"repro/internal/bb"
	"repro/internal/tree"
)

// Instance is a 0/1 knapsack instance. Items are stored in decreasing
// value-density order (the branching order that makes the greedy bound
// tight); the Order field maps internal positions back to the caller's
// original item indices.
type Instance struct {
	// Name identifies the instance.
	Name string
	// Capacity is the weight budget.
	Capacity int64
	// Values and Weights are indexed by internal position.
	Values, Weights []int64
	// Order maps internal position to the original item index.
	Order []int
}

// NewInstance validates items and sorts them by decreasing density.
func NewInstance(name string, capacity int64, values, weights []int64) (*Instance, error) {
	if len(values) != len(weights) {
		return nil, fmt.Errorf("knapsack: %d values vs %d weights", len(values), len(weights))
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("knapsack: instance %q has no items", name)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("knapsack: negative capacity %d", capacity)
	}
	n := len(values)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("knapsack: non-positive weight %d", w)
		}
	}
	for _, v := range values {
		if v < 0 {
			return nil, fmt.Errorf("knapsack: negative value %d", v)
		}
	}
	// Sort by decreasing v/w using cross multiplication to stay integral.
	sortByDensity(order, values, weights)
	ins := &Instance{Name: name, Capacity: capacity, Order: order,
		Values: make([]int64, n), Weights: make([]int64, n)}
	for pos, i := range order {
		ins.Values[pos] = values[i]
		ins.Weights[pos] = weights[i]
	}
	return ins, nil
}

func sortByDensity(order []int, values, weights []int64) {
	// Insertion sort keeps this dependency-free and stable; instances are
	// small (the binary tree has 2^n leaves, so n stays modest anyway).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			// density(a) < density(b) ⟺ v_a·w_b < v_b·w_a.
			if values[a]*weights[b] < values[b]*weights[a] {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
}

// Random generates a correlated random instance: weights uniform in
// [1, 100], values = weight + uniform [1, 20], capacity = half the total
// weight. Deterministic per seed.
func Random(n int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	values := make([]int64, n)
	weights := make([]int64, n)
	var total int64
	for i := 0; i < n; i++ {
		weights[i] = 1 + rng.Int63n(100)
		values[i] = weights[i] + 1 + rng.Int63n(20)
		total += weights[i]
	}
	ins, err := NewInstance(fmt.Sprintf("knap-%d-seed%d", n, seed), total/2, values, weights)
	if err != nil {
		panic(err) // generated inputs are valid by construction
	}
	return ins
}

// Best returns the value of the best subset denoted by a rank path of the
// problem tree (rank 0 = take, rank 1 = skip), or an error on a bad path.
func (ins *Instance) ValueOfPath(ranks []int) (value, weight int64, err error) {
	if len(ranks) != len(ins.Values) {
		return 0, 0, fmt.Errorf("knapsack: path of length %d for %d items", len(ranks), len(ins.Values))
	}
	for pos, r := range ranks {
		switch r {
		case 0:
			value += ins.Values[pos]
			weight += ins.Weights[pos]
		case 1:
		default:
			return 0, 0, fmt.Errorf("knapsack: rank %d at depth %d", r, pos)
		}
	}
	return value, weight, nil
}

// Problem adapts the instance to bb.Problem over a binary tree: depth d
// decides item d (in density order), rank 0 takes it, rank 1 skips it.
// Costs are negated values so the minimizing engines maximize value;
// infeasible subtrees (weight over capacity) bound to bb.Infinity.
type Problem struct {
	ins   *Instance
	depth int
	value []int64 // cumulative value per depth
	load  []int64 // cumulative weight per depth
	// suffix greedy tables for the fractional bound
}

// NewProblem builds the adapter.
func NewProblem(ins *Instance) *Problem {
	n := len(ins.Values)
	p := &Problem{
		ins:   ins,
		value: make([]int64, n+1),
		load:  make([]int64, n+1),
	}
	return p
}

// Instance returns the instance being solved.
func (p *Problem) Instance() *Instance { return p.ins }

// Shape implements bb.Problem: a complete binary tree of depth n.
func (p *Problem) Shape() tree.Shape { return tree.Binary{P: len(p.ins.Values)} }

// Reset implements bb.Problem.
func (p *Problem) Reset() {
	p.depth = 0
	p.value[0] = 0
	p.load[0] = 0
}

// Descend implements bb.Problem.
func (p *Problem) Descend(rank int) {
	v, w := p.value[p.depth], p.load[p.depth]
	if rank == 0 {
		v += p.ins.Values[p.depth]
		w += p.ins.Weights[p.depth]
	}
	p.depth++
	p.value[p.depth] = v
	p.load[p.depth] = w
}

// Ascend implements bb.Problem.
func (p *Problem) Ascend() { p.depth-- }

// Bound implements bb.Problem: the negated linear-relaxation upper bound.
// Items after the current depth are taken greedily in density order; the
// first one that does not fit contributes its fractional value, floored —
// valid because the integer optimum below this node is at most the LP
// optimum, and being integral, at most its floor.
//
// The greedy accumulation only drives the (negated) bound down, so there is
// no sound prune-side shortcut mid-scan; the cutoff is accepted for the
// bb.Problem contract and the exact bound is always returned (the scan is
// already short: it stops at the first item that does not fit).
func (p *Problem) Bound(int64) int64 {
	return p.relaxed(p.depth, p.value[p.depth], p.load[p.depth])
}

// BoundChild implements bb.Problem: the same relaxation from the child's
// value and load, which are one addition away.
func (p *Problem) BoundChild(rank int, _ int64) int64 {
	v, w := p.value[p.depth], p.load[p.depth]
	if rank == 0 {
		v += p.ins.Values[p.depth]
		w += p.ins.Weights[p.depth]
	}
	return p.relaxed(p.depth+1, v, w)
}

// relaxed is the bound of a node at the given depth carrying value and load.
func (p *Problem) relaxed(depth int, value, load int64) int64 {
	if load > p.ins.Capacity {
		return bb.Infinity
	}
	capLeft := p.ins.Capacity - load
	ub := value
	for i := depth; i < len(p.ins.Values); i++ {
		if p.ins.Weights[i] <= capLeft {
			capLeft -= p.ins.Weights[i]
			ub += p.ins.Values[i]
			continue
		}
		ub += capLeft * p.ins.Values[i] / p.ins.Weights[i]
		break
	}
	return -ub
}

// Cost implements bb.Problem.
func (p *Problem) Cost() int64 {
	if p.load[p.depth] > p.ins.Capacity {
		return bb.Infinity
	}
	return -p.value[p.depth]
}

// DecodePath implements bb.Decoder: lists the taken original item indices.
func (p *Problem) DecodePath(ranks []int) string {
	var taken []int
	for pos, r := range ranks {
		if pos < len(p.ins.Order) && r == 0 {
			taken = append(taken, p.ins.Order[pos])
		}
	}
	return fmt.Sprint(taken)
}

var _ bb.Problem = (*Problem)(nil)
var _ bb.Decoder = (*Problem)(nil)
