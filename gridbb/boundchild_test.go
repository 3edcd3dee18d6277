package gridbb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/gridbb"
	"repro/internal/flowshop"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/tsp"
)

// The engines bound every node through Problem.BoundChild, so its contract —
// BoundChild(r, c) is Descend(r); Bound(c); Ascend() under the cutoff
// contract, and leaves the path where it was — is what keeps explored-node
// counts identical across engines, versions and processes. This file holds
// every domain to it against a second instance of the same problem that is
// only ever driven through Descend/Bound/Ascend.

// domain is one problem configuration the contract is checked on.
type domain struct {
	name    string
	factory func() gridbb.Problem
}

// boundChildDomains lists a factory per domain and bound configuration.
func boundChildDomains() []domain {
	domains := []domain{
		{"tsp", func() gridbb.Problem { return tsp.NewProblem(tsp.RandomEuclidean(8, 150, 6)) }},
		{"qap", func() gridbb.Problem { return qap.NewProblem(qap.Random(6, 12, 5)) }},
		{"qap-asymmetric", func() gridbb.Problem { return qap.NewProblem(asymmetricQAP) }},
		{"knapsack", func() gridbb.Problem { return knapsack.NewProblem(knapsack.Random(12, 11)) }},
	}
	ins := flowshop.Taillard(8, 5, 13)
	for kind, kn := range []string{"one", "two", "combined"} {
		for ps, pn := range []string{"all", "adjacent", "firstlast"} {
			kind, ps := flowshop.BoundKind(kind), flowshop.PairStrategy(ps)
			domains = append(domains, domain{"flowshop-" + kn + "-" + pn,
				func() gridbb.Problem { return flowshop.NewProblem(ins, kind, ps) }})
		}
	}
	return domains
}

// asymmetricQAP is what qap.Random never draws — Flow[i][j] != Flow[j][i],
// Dist likewise, non-zero diagonals — so the self-loop term and the two
// directions of every fixed–free product are each told apart.
var asymmetricQAP = func() *qap.Instance {
	rng := rand.New(rand.NewSource(18))
	gen := func() [][]int64 {
		m := make([][]int64, 6)
		for i := range m {
			m[i] = make([]int64, 6)
			for j := range m[i] {
				m[i][j] = 1 + rng.Int63n(12)
			}
		}
		return m
	}
	ins, err := qap.NewInstance("qap-asymmetric", gen(), gen())
	if err != nil {
		panic(err)
	}
	return ins
}()

// boundChildWalk drives p and its BoundChild-free twin ref through the same
// moves, drawn from next (any non-negative ints), and checks every child
// bound it meets on the way. Moves: bound a child, descend, ascend, reset,
// and a dive to the last internal level, where the batch is two rows and
// the child below is a leaf's parent.
func boundChildWalk(p, ref gridbb.Problem, moves int, next func() int) error {
	shape := p.Shape()
	depthMax := shape.Depth()
	p.Reset()
	ref.Reset()
	depth := 0
	descend := func(r int) {
		p.Descend(r)
		ref.Descend(r)
		depth++
	}
	for i := 0; i < moves; i++ {
		switch op := next() % 8; {
		case op <= 3 && depth+1 < depthMax:
			if err := checkBoundChild(p, ref, next()%shape.Branching(depth), next()); err != nil {
				return fmt.Errorf("move %d, depth %d: %w", i, depth, err)
			}
		case op == 4 && depth < depthMax:
			descend(next() % shape.Branching(depth))
		case op == 5 && depth > 0:
			// Back up: the batch left at the depth below is stranded, and
			// the next descent from here must not find it.
			p.Ascend()
			ref.Ascend()
			depth--
		case op == 6:
			for depth+2 < depthMax {
				descend(next() % shape.Branching(depth))
			}
		case op == 7 && next()%4 == 0:
			p.Reset()
			ref.Reset()
			depth = 0
		}
		// Nothing above may have moved p's path or bent its state.
		if depth == depthMax {
			if got, want := p.Cost(), ref.Cost(); got != want {
				return fmt.Errorf("move %d: leaf cost %d, reference %d", i, got, want)
			}
		} else if got, want := p.Bound(gridbb.Infinity), ref.Bound(gridbb.Infinity); got != want {
			return fmt.Errorf("move %d, depth %d: Bound(Infinity) = %d, reference %d", i, depth, got, want)
		}
	}
	return nil
}

// checkBoundChild holds p.BoundChild(rank, ·) to the contract at a spread of
// cutoffs around the child's exact bound, pick choosing one more.
func checkBoundChild(p, ref gridbb.Problem, rank, pick int) error {
	ref.Descend(rank)
	exact := ref.Bound(gridbb.Infinity)
	ref.Ascend()
	cutoffs := []int64{1, gridbb.Infinity, int64(pick % 4000)}
	if exact < gridbb.Infinity {
		cutoffs = append(cutoffs, exact-7, exact-1, exact, exact+1, exact+7, exact/2+1, 2*exact+1)
	}
	for _, c := range cutoffs {
		got := p.BoundChild(rank, c)
		if (got >= c) != (exact >= c) {
			return fmt.Errorf("BoundChild(%d, %d) = %d prunes=%v, exact bound %d prunes=%v", rank, c, got, got >= c, exact, exact >= c)
		}
		if exact < c && got != exact {
			return fmt.Errorf("BoundChild(%d, %d) = %d below the cutoff, exact bound %d", rank, c, got, exact)
		}
		if got > exact {
			return fmt.Errorf("BoundChild(%d, %d) = %d exceeds the exact bound %d (not admissible)", rank, c, got, exact)
		}
		// The definition, on the same instance: it must survive the
		// BoundChild calls around it and agree with them.
		p.Descend(rank)
		def := p.Bound(c)
		p.Ascend()
		if (def >= c) != (got >= c) || (def < c && def != got) {
			return fmt.Errorf("BoundChild(%d, %d) = %d, Descend;Bound;Ascend on the same problem = %d", rank, c, got, def)
		}
	}
	return nil
}

// TestBoundChildContract is the randomized oracle of the child-bounding
// contract over every domain and flow-shop bound configuration.
func TestBoundChildContract(t *testing.T) {
	for _, dom := range boundChildDomains() {
		t.Run(dom.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260926))
			for trial := 0; trial < 20; trial++ {
				if err := boundChildWalk(dom.factory(), dom.factory(), 300, func() int { return rng.Intn(1 << 30) }); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// FuzzBoundChild lets the fuzzer write the walk: the first byte picks the
// domain, the rest are the moves.
func FuzzBoundChild(f *testing.F) {
	f.Add([]byte{0, 6, 0, 1, 2, 5, 0, 3, 7, 0, 4, 1, 0, 2})
	f.Add([]byte{5, 4, 0, 4, 1, 0, 0, 200, 5, 5, 1, 1, 9, 6, 3, 3, 0, 1, 1})
	f.Add([]byte{11, 6, 1, 2, 3, 4, 5, 0, 0, 17, 5, 0, 1, 33})
	f.Add([]byte{2, 4, 1, 0, 3, 0, 9, 4, 0, 2, 1, 7, 5, 1, 3, 6}) // qap-asymmetric
	domains := boundChildDomains()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dom := domains[int(data[0])%len(domains)]
		data = data[1:]
		i := 0
		next := func() int {
			b := data[i%len(data)]
			i++
			return int(b) + 256*(i/len(data)) // keeps changing once the input wraps
		}
		if err := boundChildWalk(dom.factory(), dom.factory(), 4*len(data), next); err != nil {
			t.Fatalf("%s: %v", dom.name, err)
		}
	})
}
