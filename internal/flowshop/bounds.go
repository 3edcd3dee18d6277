package flowshop

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// BoundKind selects the lower-bound family used by the B&B bounding
// operator. The paper does not spell out its bound; the DOLPHIN team's
// flowshop B&B traditionally combines the one-machine bound with the
// two-machine (Johnson) bound of Lageweg et al., both implemented here.
type BoundKind int

const (
	// BoundOneMachine is the classical single-machine relaxation: for
	// every machine m, every remaining job must run on m after the
	// prefix's completion time, and the last one still needs its minimal
	// tail to exit the shop. Cheap (O(N·M) per node) and reasonably
	// tight.
	BoundOneMachine BoundKind = iota
	// BoundTwoMachine is the two-machine relaxation with time lags:
	// for machine pairs (u,v) the remaining jobs form an F2|l_j|Cmax
	// instance solved exactly by Johnson's rule (with Mitten's lag
	// extension); orders are precomputed per pair so evaluation is
	// O(pairs·N) per node. Dominates the one-machine bound on the pairs
	// it inspects, at a higher per-node cost.
	BoundTwoMachine
	// BoundCombined takes the max of both families.
	BoundCombined
)

// ParseBound maps a command-line bound name — one, two or combined — to
// its BoundKind.
func ParseBound(name string) (BoundKind, error) {
	switch name {
	case "one":
		return BoundOneMachine, nil
	case "two":
		return BoundTwoMachine, nil
	case "combined":
		return BoundCombined, nil
	}
	return 0, fmt.Errorf("unknown bound %q", name)
}

// PairStrategy selects which machine pairs the two-machine bound inspects.
type PairStrategy int

const (
	// PairsAll inspects all M(M-1)/2 ordered pairs: the tightest and the
	// most expensive.
	PairsAll PairStrategy = iota
	// PairsAdjacent inspects only (m, m+1): M-1 pairs.
	PairsAdjacent
	// PairsFirstLast inspects (0, m) and (m, M-1): about 2M pairs,
	// a common compromise.
	PairsFirstLast
)

// tables holds everything the bounding operator reads and never writes: it
// is built once per Instance (see Instance.tables) and shared by every
// Problem over it, so a factory called per worker, per shard or per
// simulated session costs one scratch block and no table building.
type tables struct {
	// proc[j*M+m] and procT[m*N+j] are Instance.Proc, flat and transposed.
	proc, procT []int64
	// total[m] is machine m's load over all jobs (the root's sumRem).
	total []int64
	// The sorted orders behind the remaining-set minima. Slot s < M is
	// machine s's tail (sum of p[j][k] for k > s: what job j still needs
	// after leaving the machine), slot M+m is machine m's cum (sum of
	// p[j][k] for k < m: what it needs before reaching it). ordJob[s*(N+1)+k]
	// is the job with slot s's k-th smallest value, ties by job index, and
	// ordVal that value; each order ends on the sentinel job N, which is
	// "remaining" for ever, so a walk along an order needs no end test. The
	// minimum over any remaining set is the first remaining job along the
	// order, and when that job leaves, the next one — no rescan.
	ordJob []int
	ordVal []int64
	// batchOff[d] is where depth d's sibling batch starts in a Problem's
	// scratch block (see NewProblem): (N-d) rows of M completion times.
	batchOff []int

	pairs [3]struct {
		once sync.Once
		list []johnsonPair
	}
}

// maxTime is larger than any completion time or bound and small enough to
// be added to one without overflow: the "minimum" over no job at all.
const maxTime = int64(1) << 62

func buildTables(ins *Instance) *tables {
	N, M := ins.Jobs, ins.Machines
	t := &tables{
		proc:     make([]int64, N*M),
		procT:    make([]int64, N*M),
		total:    make([]int64, M),
		ordJob:   make([]int, 2*M*(N+1)),
		ordVal:   make([]int64, 2*M*(N+1)),
		batchOff: make([]int, N+1),
	}
	key := make([]int64, 2*M*N) // key[s*N+j]: job j's value in slot s
	for j, row := range ins.Proc {
		var cum int64
		for m, p := range row {
			t.proc[j*M+m], t.procT[m*N+j] = p, p
			t.total[m] += p
			key[(M+m)*N+j] = cum
			cum += p
		}
		var tail int64
		for m := M - 1; m >= 0; m-- {
			key[m*N+j] = tail
			tail += row[m]
		}
	}
	for s := 0; s < 2*M; s++ {
		k, jobs, vals := key[s*N:][:N], t.ordJob[s*(N+1):][:N+1], t.ordVal[s*(N+1):][:N+1]
		for j := range jobs {
			jobs[j] = j
		}
		sort.SliceStable(jobs[:N], func(x, y int) bool { return k[jobs[x]] < k[jobs[y]] })
		for i, j := range jobs[:N] {
			vals[i] = k[j]
		}
		vals[N] = maxTime
	}
	// The root's own completion times (all zero) sit in front of the
	// batches, so every depth's row — the root's included — lives in the
	// same block.
	off := M
	for d := 0; d <= N; d++ {
		t.batchOff[d] = off
		off += (N - d) * M
	}
	return t
}

// johnsonPair holds the precomputed Johnson order for the two-machine
// relaxation on machines (u, v), u < v, with lags l_j = sum of p[j][k] for
// u < k < v. The per-job terms of the F2|l_j|Cmax recurrence are flattened
// into slices aligned with the Johnson order, so the per-node evaluation
// walks three flat arrays instead of chasing the 2-D processing and
// cumulative tables.
type johnsonPair struct {
	u, v  int
	order []int   // all jobs, Johnson-sorted; evaluation skips scheduled ones
	pu    []int64 // pu[i] = Proc[order[i]][u]
	lag   []int64 // lag[i] = Mitten lag of order[i] between u and v
	pv    []int64 // pv[i] = Proc[order[i]][v]
}

// johnsonPairs returns the instance's pairs for a strategy, built on first
// use and shared read-only like the rest of the tables.
func (ins *Instance) johnsonPairs(ps PairStrategy) []johnsonPair {
	t := ins.tables()
	if ps < 0 || int(ps) >= len(t.pairs) {
		return nil
	}
	c := &t.pairs[ps]
	c.once.Do(func() { c.list = buildPairs(ins, ps) })
	return c.list
}

func buildPairs(ins *Instance, ps PairStrategy) []johnsonPair {
	M := ins.Machines
	var pairs []johnsonPair
	add := func(u, v int) {
		if u < 0 || v >= M || u >= v {
			return
		}
		pairs = append(pairs, makePair(ins, u, v))
	}
	switch ps {
	case PairsAll:
		for u := 0; u < M; u++ {
			for v := u + 1; v < M; v++ {
				add(u, v)
			}
		}
	case PairsAdjacent:
		for u := 0; u+1 < M; u++ {
			add(u, u+1)
		}
	case PairsFirstLast:
		for v := 1; v < M; v++ {
			add(0, v)
		}
		for u := 1; u < M-1; u++ {
			add(u, M-1)
		}
	}
	return pairs
}

func makePair(ins *Instance, u, v int) johnsonPair {
	// lag is the Mitten time lag of job j between machines u and v.
	lag := func(j int) int64 {
		var l int64
		for k := u + 1; k < v; k++ {
			l += ins.Proc[j][k]
		}
		return l
	}
	order := make([]int, ins.Jobs)
	for j := range order {
		order[j] = j
	}
	// Johnson's rule on the modified times a = p_u + lag, b = lag + p_v
	// (Mitten): group A = {a <= b} by ascending a, then group B by
	// descending b. Ties broken by job index for determinism.
	type key struct {
		groupB bool
		k      int64
		j      int
	}
	keys := make([]key, ins.Jobs)
	for j := 0; j < ins.Jobs; j++ {
		l := lag(j)
		a := ins.Proc[j][u] + l
		bb := l + ins.Proc[j][v]
		if a <= bb {
			keys[j] = key{groupB: false, k: a, j: j}
		} else {
			keys[j] = key{groupB: true, k: -bb, j: j}
		}
	}
	sort.Slice(order, func(x, y int) bool {
		kx, ky := keys[order[x]], keys[order[y]]
		if kx.groupB != ky.groupB {
			return !kx.groupB
		}
		if kx.k != ky.k {
			return kx.k < ky.k
		}
		return kx.j < ky.j
	})
	p := johnsonPair{
		u: u, v: v, order: order,
		pu:  make([]int64, ins.Jobs),
		lag: make([]int64, ins.Jobs),
		pv:  make([]int64, ins.Jobs),
	}
	for i, j := range order {
		p.pu[i] = ins.Proc[j][u]
		p.lag[i] = lag(j)
		p.pv[i] = ins.Proc[j][v]
	}
	return p
}

// Bound implements bb.Problem: a lower bound on the makespan of every
// completion of the current prefix, under the cutoff contract — admissible,
// exact when below cutoff, and returned the moment a partial value reaches
// cutoff: the one-machine sweep first (oneMachine), then the Johnson pairs
// (twoMachine), each family only when the kind enables it. The engines bound
// through BoundChild; Bound serves whoever stands on a node already (the
// root bound, the oracles). With no job remaining the bound is exactly the
// prefix makespan.
func (p *Problem) Bound(cutoff int64) int64 {
	if len(p.remaining) == 0 {
		return p.Cost()
	}
	var lb int64
	if p.one {
		if lb = p.oneMachine(p.depth, cutoff); lb >= cutoff {
			return lb
		}
	}
	if p.pairs != nil {
		if v := p.twoMachine(p.depth, cutoff); v > lb {
			lb = v
		}
	}
	return lb
}

// BoundChild implements bb.Problem: the bound of the rank-th child under the
// cutoff contract, equal in every observable way to Descend(rank);
// Bound(cutoff); Ascend() — without moving the path, and for the one-machine
// family without writing anything.
//
// Most children of a B&B tree are pruned the moment they are bounded, so
// what a pruned child costs is what a node costs. Stages:
//
//  1. the first call at a depth computes the completion times of ALL the
//     remaining children in one pass (batchSiblings) — they are what every
//     later stage of every sibling starts from;
//  2. the child is swept bottleneck-machine-first against the PARENT's
//     remaining-set minima. The child's own set is one job smaller, so the
//     parent's minima are lower bounds of the child's: the value is
//     admissible, and exact on every machine but those with a minimum
//     sitting on the child's own job;
//  3. those machines — the slots the job holds — are evaluated again with
//     the minimum that follows the job along the slot's order;
//  4. the Johnson pairs, when the kind has them, on the child's own state:
//     the job leaves the remaining set for the length of the stage.
//
// The batch holds completion times only, never bounds: every sweep reads the
// cutoff it is given, so an incumbent that improves between two siblings
// prunes exactly as it would have node by node.
func (p *Problem) BoundChild(rank int, cutoff int64) int64 {
	d, M := p.depth, p.ins.Machines
	if !p.batched[d] {
		p.batchSiblings(d)
	}
	off := p.tab.batchOff[d] + rank*M
	heads := p.f[off:][:M]
	if len(p.remaining) == 1 {
		return heads[M-1]
	}
	job := p.remaining[rank]
	proc := p.tab.proc[job*M:][:M]
	sum := p.f[p.sumOff+d*M:][:M]
	var lb int64
	if p.one {
		minTail, minCum := p.f[p.minOff:][:M], p.f[p.minOff+M:][:M]
		h0 := heads[0]
		for m := M - 1; m >= 0; m-- {
			if v := machineBound(heads[m], h0+minCum[m], sum[m]-proc[m], minTail[m]); v > lb {
				if v >= cutoff {
					return v
				}
				lb = v
			}
		}
		W := p.maskWords
		for w, held := range p.holds[job*W:][:W] {
			for ; held != 0; held &= held - 1 {
				m := w*64 + bits.TrailingZeros64(held)
				if m >= M {
					m -= M
				}
				if v := machineBound(heads[m], h0+p.minWithout(M+m, job), sum[m]-proc[m], p.minWithout(m, job)); v > lb {
					if v >= cutoff {
						return v
					}
					lb = v
				}
			}
		}
	}
	if p.pairs != nil {
		p.headOff[d+1] = off
		p.leave(d, job)
		if v := p.twoMachine(d+1, cutoff); v > lb {
			lb = v
		}
		p.rejoin(d, job)
	}
	return lb
}

// batchSiblings fills depth d's batch: row i holds the machine completion
// times of the prefix extended by the i-th remaining job. Machines outside,
// children inside: the r recurrences are independent, so the processor
// overlaps what would be one serial max-add chain per child, and the
// transposed processing times of one machine are read from one row.
func (p *Problem) batchSiblings(d int) {
	N, M := p.ins.Jobs, p.ins.Machines
	rem := p.remaining
	heads := p.f[p.headOff[d]:][:M]
	batch := p.f[p.tab.batchOff[d]:][:len(rem)*M]
	procT := p.tab.procT
	h0 := heads[0]
	for i, j := range rem {
		batch[i*M] = h0 + procT[j]
	}
	for m := 1; m < M; m++ {
		hm, row := heads[m], procT[m*N:][:N]
		k := m
		for _, j := range rem {
			c := batch[k-1]
			if c < hm {
				c = hm
			}
			batch[k] = c + row[j]
			k += M
		}
	}
	p.batched[d] = true
}

// The remaining-set minima — per slot (see tables), the smallest value over
// the unscheduled jobs — are kept current along the path, not per depth:
// p.f[minOff+s] is slot s's minimum, at[s] where along the slot's order it
// sits, and holds[j] the set of slots whose minimum sits on job j, a bitmask
// of maskWords words. When a job leaves, only the slots it holds move, each
// to the next remaining job along its order; what moved is logged, and undone
// when the job rejoins. Both cost a few steps per slot held, nothing per slot
// kept, and there is nothing to invalidate.

// minWithout returns what slot s's minimum would be with the job gone.
func (p *Problem) minWithout(s, job int) int64 {
	k := s*(p.ins.Jobs+1) + p.at[s]
	if p.tab.ordJob[k] != job {
		return p.f[p.minOff+s]
	}
	for k++; !p.inRem[p.tab.ordJob[k]]; k++ {
	}
	return p.tab.ordVal[k]
}

// leave takes the job the depth-d node's child schedules out of the
// remaining set.
func (p *Problem) leave(d, job int) {
	p.inRem[job] = false
	p.logMark[d] = p.logTop
	stride, W := p.ins.Jobs+1, p.maskWords
	t, inRem := p.tab, p.inRem
	for w, held := range p.holds[job*W:][:W] {
		for ; held != 0; held &= held - 1 {
			s := w*64 + bits.TrailingZeros64(held)
			p.logSlot[p.logTop], p.logAt[p.logTop] = s, p.at[s]
			p.logTop++
			k := s*stride + p.at[s] + 1
			for !inRem[t.ordJob[k]] {
				k++
			}
			p.at[s], p.f[p.minOff+s] = k-s*stride, t.ordVal[k]
			p.holds[t.ordJob[k]*W+w] |= held & -held
		}
	}
}

// rejoin undoes leave(d, job).
func (p *Problem) rejoin(d, job int) {
	stride, W := p.ins.Jobs+1, p.maskWords
	t := p.tab
	for p.logTop > p.logMark[d] {
		p.logTop--
		s := p.logSlot[p.logTop]
		p.holds[t.ordJob[s*stride+p.at[s]]*W+s/64] &^= 1 << (s % 64)
		p.at[s] = p.logAt[p.logTop]
		p.f[p.minOff+s] = t.ordVal[s*stride+p.at[s]]
	}
	p.inRem[job] = true
}

// machineBound is the one-machine bound's term for one machine:
// release + load + minTail, where release = max(head, arrival) — the machine
// is busy until head, no remaining job can reach it before passing the
// machines in front of it (arrival: the first machine's completion time plus
// the minimal cum), it then has the remaining jobs' load to run, and the last
// of them still needs its minimal tail to exit the shop.
func machineBound(head, arrival, load, minTail int64) int64 {
	if arrival > head {
		head = arrival
	}
	return head + load + minTail
}

// oneMachine is the full one-machine bound of the node whose rows sit at
// depth d: the largest machineBound, swept from the last machine down —
// the accumulated heads make late machines the usual bottleneck — with an
// in-loop exit.
func (p *Problem) oneMachine(d int, cutoff int64) int64 {
	M := p.ins.Machines
	heads := p.f[p.headOff[d]:][:M]
	sum := p.f[p.sumOff+d*M:][:M]
	minTail, minCum := p.f[p.minOff:][:M], p.f[p.minOff+M:][:M]
	var lb int64
	h0 := heads[0]
	for m := M - 1; m >= 0; m-- {
		if v := machineBound(heads[m], h0+minCum[m], sum[m], minTail[m]); v > lb {
			if v >= cutoff {
				return v
			}
			lb = v
		}
	}
	return lb
}

// twoMachine: LB = max over precomputed pairs (u,v) of
//
//	Johnson makespan of the remaining jobs on (u,v) with lags,
//	started at the machines' release times, plus the minimal tail
//	after v,
//
// for the node whose rows sit at depth d. The completion time c2 never
// decreases as jobs are appended, so the moment c2 + minTail[v] reaches
// cutoff the pair — and the whole bound — is already proved >= cutoff and
// the partial value is returned: it is a lower bound on this pair's final
// value, hence admissible.
func (p *Problem) twoMachine(d int, cutoff int64) int64 {
	M := p.ins.Machines
	heads := p.f[p.headOff[d]:][:M]
	minTail, minCum := p.f[p.minOff:][:M], p.f[p.minOff+M:][:M]
	inRem := p.inRem
	var lb int64
	for i := range p.pairs {
		pr := &p.pairs[i]
		relU := heads[pr.u]
		if r := heads[0] + minCum[pr.u]; r > relU {
			relU = r
		}
		tail := minTail[pr.v]
		c1, c2 := relU, heads[pr.v]
		for k, j := range pr.order {
			if !inRem[j] {
				continue
			}
			c1 += pr.pu[k]
			if t := c1 + pr.lag[k]; c2 < t {
				c2 = t
			}
			c2 += pr.pv[k]
			if c2+tail >= cutoff {
				return c2 + tail
			}
		}
		if v := c2 + tail; v > lb {
			lb = v
		}
	}
	return lb
}

// Johnson returns an optimal permutation and its makespan for a two-machine
// instance (Johnson 1954). It errors via panic if the instance has a
// different machine count, which is a programming error. It doubles as an
// independent oracle for two-machine B&B tests.
func Johnson(ins *Instance) ([]int, int64) {
	if ins.Machines != 2 {
		panic("flowshop: Johnson requires exactly 2 machines")
	}
	perm := make([]int, ins.Jobs)
	for j := range perm {
		perm[j] = j
	}
	sort.Slice(perm, func(x, y int) bool {
		jx, jy := perm[x], perm[y]
		ax, bx := ins.Proc[jx][0], ins.Proc[jx][1]
		ay, by := ins.Proc[jy][0], ins.Proc[jy][1]
		gx, gy := ax > bx, ay > by // false = group A (a<=b)
		if gx != gy {
			return !gx
		}
		if !gx {
			if ax != ay {
				return ax < ay
			}
			return jx < jy
		}
		if bx != by {
			return bx > by
		}
		return jx < jy
	})
	return perm, ins.Makespan(perm)
}
