package flowshop

import (
	"fmt"
	"sort"

	"repro/internal/tree"
)

// Problem adapts a flowshop instance to the generic bb.Problem interface:
// the search tree is the permutation tree of the instance's jobs (paper
// §3.1), a node at depth d fixes the first d jobs of the schedule, and the
// canonical child order — hence the node numbering shared by every process —
// is ascending job index among unscheduled jobs.
//
// The state is per depth and incremental. The machine completion times of a
// node are a row of its parent's sibling batch (see BoundChild), so Descend
// computes none: it takes the job off the remaining list and out of the
// minima, points the new depth at the row and writes the remaining-sum row.
// Ascend restores the list and the minima; the per-depth rows simply become
// dead when the depth counter drops. A Problem is not safe for concurrent
// use; create one per worker.
//
// Everything a Problem writes while it is explored sits in blocks of its own
// (one per element type), each padded by a cache line at both ends,
// and the struct is padded the same way: two Problems built back to back and
// explored by two goroutines share no cache line, whatever the allocator
// does. The read-only tables belong to the Instance and are shared.
type Problem struct {
	_ [cacheLine]byte

	ins   *Instance
	tab   *tables
	one   bool          // the one-machine family is on
	pairs []johnsonPair // the Johnson stage's pairs; nil when that family is off

	depth     int
	remaining []int // unscheduled jobs, ascending

	// f holds every time value: the root's completion times, then one
	// sibling batch per depth (tables.batchOff), then the (N+1)×M stack of
	// remaining processing time per machine and depth, then the 2M current
	// minima (bounds.go).
	f              []int64
	sumOff, minOff int

	// headOff[d] is where in f the completion times of the path's depth-d
	// node are: a row of depth d-1's batch.
	headOff    []int
	chosenJob  []int // job scheduled at each depth; chosenJob[:depth] is the prefix
	chosenRank []int // its rank at Descend time, for Ascend
	// The minima's positions and undo log (bounds.go): logMark[d] is where
	// the log stood before the depth-d node's child left.
	at, logSlot, logAt, logMark []int
	logTop                      int
	holds                       []uint64
	maskWords                   int

	inRem []bool // membership mask over job ids, plus the orders' sentinel
	// batched[d]: depth d's sibling batch is computed for the current path;
	// cleared when a Descend arrives at d.
	batched []bool

	_ [cacheLine]byte
}

const cacheLine = 64

// padded returns n elements with pad more on both sides of them in the same
// allocation; pad is a cache line's worth of T.
func padded[T any](n, pad int) []T {
	return make([]T, n+2*pad)[pad : pad+n : pad+n]
}

// NewProblem builds the B&B adapter with the given bound configuration. The
// pair strategy is only consulted for the two-machine kinds.
func NewProblem(ins *Instance, kind BoundKind, ps PairStrategy) *Problem {
	N, M := ins.Jobs, ins.Machines
	p := &Problem{ins: ins, tab: ins.tables(), one: kind == BoundOneMachine || kind == BoundCombined}
	if kind == BoundTwoMachine || kind == BoundCombined {
		p.pairs = ins.johnsonPairs(ps)
	}
	p.sumOff = p.tab.batchOff[N]
	p.minOff = p.sumOff + (N+1)*M
	p.f = padded[int64](p.minOff+2*M, cacheLine/8)

	// A slot's minimum only ever moves forward along its order on the way
	// down a path, N steps at most: the log never holds more than 2M·N.
	parts := []struct {
		dst *[]int
		n   int
	}{
		{&p.remaining, N}, {&p.chosenJob, N}, {&p.chosenRank, N},
		{&p.headOff, N + 1}, {&p.logMark, N + 1},
		{&p.at, 2 * M}, {&p.logSlot, 2 * M * N}, {&p.logAt, 2 * M * N},
	}
	total := 0
	for _, part := range parts {
		total += part.n
	}
	ints := padded[int](total, cacheLine/8)
	for _, part := range parts {
		*part.dst, ints = ints[:part.n:part.n], ints[part.n:]
	}

	p.maskWords = (2*M + 63) / 64
	p.holds = padded[uint64]((N+1)*p.maskWords, cacheLine/8)
	flags := padded[bool](2*(N+1), cacheLine)
	p.inRem, p.batched = flags[:N+1:N+1], flags[N+1:]
	p.Reset()
	return p
}

// Instance returns the instance being solved.
func (p *Problem) Instance() *Instance { return p.ins }

// Shape implements bb.Problem: the permutation tree over the jobs.
func (p *Problem) Shape() tree.Shape { return tree.Permutation{N: p.ins.Jobs} }

// Reset implements bb.Problem.
func (p *Problem) Reset() {
	N, M := p.ins.Jobs, p.ins.Machines
	p.depth = 0
	p.remaining = p.remaining[:N]
	for j := range p.remaining {
		p.remaining[j] = j
	}
	for j := range p.inRem {
		p.inRem[j] = true // the sentinel included
	}
	// The root: nothing scheduled (the zero row in front of the batches),
	// every job remaining, every minimum at the head of its order.
	p.headOff[0] = 0
	p.batched[0] = false
	copy(p.f[p.sumOff:][:M], p.tab.total)
	p.logTop = 0
	clear(p.holds)
	for s := range p.at {
		head := s * (N + 1)
		p.at[s], p.f[p.minOff+s] = 0, p.tab.ordVal[head]
		// A slot every job has the same value in (the last machine's tail
		// and the first one's cum, zero for all) has a minimum that cannot
		// move: nobody holds it.
		if p.tab.ordVal[head] != p.tab.ordVal[head+N-1] {
			p.holds[p.tab.ordJob[head]*p.maskWords+s/64] |= 1 << (s % 64)
		}
	}
}

// Descend implements bb.Problem: schedule the rank-th smallest unscheduled
// job next.
func (p *Problem) Descend(rank int) {
	d, M := p.depth, p.ins.Machines
	if !p.batched[d] {
		p.batchSiblings(d)
	}
	job := p.remaining[rank]
	// Hand-rolled shift: the move is a handful of ints, below the size
	// where memmove's call overhead pays for itself.
	rem := p.remaining
	for i := rank; i < len(rem)-1; i++ {
		rem[i] = rem[i+1]
	}
	p.remaining = rem[:len(rem)-1]
	p.headOff[d+1] = p.tab.batchOff[d] + rank*M
	proc := p.tab.proc[job*M:][:M]
	sum, next := p.f[p.sumOff+d*M:][:M], p.f[p.sumOff+(d+1)*M:][:M]
	for m := range next {
		next[m] = sum[m] - proc[m]
	}
	p.leave(d, job)
	p.chosenJob[d] = job
	p.chosenRank[d] = rank
	p.depth = d + 1
	p.batched[d+1] = false
}

// Ascend implements bb.Problem. The per-depth rows need no restoring — the
// depth counter dropping makes them dead — so only the remaining list and
// the minima are repaired.
func (p *Problem) Ascend() {
	p.depth--
	job := p.chosenJob[p.depth]
	rank := p.chosenRank[p.depth]
	rem := p.remaining[:len(p.remaining)+1]
	for i := len(rem) - 1; i > rank; i-- {
		rem[i] = rem[i-1]
	}
	rem[rank] = job
	p.remaining = rem
	p.rejoin(p.depth, job)
}

// Cost implements bb.Problem: the makespan of the complete schedule.
func (p *Problem) Cost() int64 {
	return p.f[p.headOff[p.depth]+p.ins.Machines-1]
}

// Prefix returns a copy of the currently scheduled job prefix, mostly for
// debugging and examples.
func (p *Problem) Prefix() []int { return append([]int(nil), p.chosenJob[:p.depth]...) }

// DecodePath implements bb.Decoder: it renders the job permutation selected
// by a rank path.
func (p *Problem) DecodePath(ranks []int) string {
	perm, err := PermutationOfPath(p.ins.Jobs, ranks)
	if err != nil {
		return fmt.Sprintf("<invalid path: %v>", err)
	}
	return fmt.Sprint(perm)
}

// PermutationOfPath converts a rank path of the permutation tree into the
// job permutation it denotes: rank r at depth d picks the r-th smallest of
// the jobs not yet chosen.
func PermutationOfPath(jobs int, ranks []int) ([]int, error) {
	if len(ranks) > jobs {
		return nil, fmt.Errorf("flowshop: path of length %d for %d jobs", len(ranks), jobs)
	}
	remaining := make([]int, jobs)
	for j := range remaining {
		remaining[j] = j
	}
	perm := make([]int, 0, len(ranks))
	for d, r := range ranks {
		if r < 0 || r >= len(remaining) {
			return nil, fmt.Errorf("flowshop: rank %d out of range at depth %d", r, d)
		}
		perm = append(perm, remaining[r])
		remaining = append(remaining[:r], remaining[r+1:]...)
	}
	return perm, nil
}

// PathOfPermutation is the inverse of PermutationOfPath: it computes the
// rank path of a (possibly partial) job permutation. It is how externally
// found solutions (heuristics, the paper's published schedule) are injected
// into the rank-path world of the engines.
func PathOfPermutation(jobs int, perm []int) ([]int, error) {
	if len(perm) > jobs {
		return nil, fmt.Errorf("flowshop: permutation of length %d for %d jobs", len(perm), jobs)
	}
	remaining := make([]int, jobs)
	for j := range remaining {
		remaining[j] = j
	}
	ranks := make([]int, 0, len(perm))
	for _, job := range perm {
		r := sort.SearchInts(remaining, job)
		if r == len(remaining) || remaining[r] != job {
			return nil, fmt.Errorf("flowshop: job %d repeated or out of range", job)
		}
		ranks = append(ranks, r)
		remaining = append(remaining[:r], remaining[r+1:]...)
	}
	return ranks, nil
}
