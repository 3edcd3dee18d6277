// Package p2p models the peer-to-peer paradigm the paper announces as
// future work (§6: "It is also planned to use the approach with a peer to
// peer paradigm. This paradigm makes it possible to push far the
// scalability limits of the method.") as a deterministic ring that the
// chaos harness can audit.
//
// The interval coding carries over unchanged: a work unit is still an
// interval, but instead of a farmer partitioning a central INTERVALS set,
// hungry peers steal directly from randomly chosen victims — the victim
// folds its remaining work, splits it in half, restricts its own explorer
// to the left part and hands the right part over (core.Donate, the same
// algebra the worker's shard engines steal with). No central copy of the
// work exists, so what must be rebuilt is termination detection, which the
// farmer got for free (§4.3). The ring uses the Dijkstra–Feijen–van
// Gasteren token with conservative blackening: any peer that donated work
// since the last token pass taints the token, forcing another round.
// Solution sharing degenerates to a shared incumbent cell: peers publish
// improvements immediately and adopt the global cost between steps —
// rules (2) and (3) of §4.4 without the coordinator in the middle.
//
// Lockstep drives the ring round-robin on one goroutine, so equal seeds
// give byte-identical event traces. That is what lets internal/harness put
// the protocol under ring partitions, delayed tokens and peer crashes
// (ringstore.go: per-peer two-file checkpoints) and still assert exact
// work conservation. The package starts no goroutines and owns no
// channels: concurrent in-process peers are gridbb.SolveP2P, which runs
// the worker's goroutine shard engine with no coordinator above it.
package p2p

import (
	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/interval"
)

// Options parameterizes a ring.
type Options struct {
	// Peers is the ring size. Default 4.
	Peers int
	// InitialUpper primes the shared incumbent (0 → Infinity).
	InitialUpper int64
	// StepBudget is a busy peer's exploration slice per sweep. Default
	// 4096.
	StepBudget int64
	// Seed drives victim selection; equal seeds reproduce the run.
	Seed int64
}

// Result summarizes a resolution.
type Result struct {
	// Best is the proven optimum.
	Best bb.Solution
	// Stats aggregates all peers' engine counters.
	Stats bb.Stats
	// Steals counts successful work transfers; StealAttempts all tries.
	Steals, StealAttempts int64
	// TokenRounds counts full circulations of the termination token.
	TokenRounds int64
	// PerPeer are the per-peer explored-node counts.
	PerPeer []int64
}

// sharedBest is the decentralized SOLUTION: one incumbent cell every peer
// reads and writes. Lockstep runs every peer on one goroutine, so the cell
// needs no lock.
type sharedBest struct {
	cost int64
	path []int
}

func (b *sharedBest) get() int64 { return b.cost }

func (b *sharedBest) offer(sol bb.Solution) {
	if sol.Cost < b.cost {
		b.cost = sol.Cost
		b.path = append(b.path[:0], sol.Path...)
	}
}

func (b *sharedBest) solution() bb.Solution {
	if b.path == nil {
		return bb.Solution{Cost: b.cost}
	}
	return bb.Solution{Cost: b.cost, Path: append([]int(nil), b.path...)}
}

// token is the termination-detection message.
type token struct {
	black  bool
	rounds int64
}

// peer is one B&B process.
type peer struct {
	idx int
	ex  *core.Explorer

	// dirty marks "donated work since last token pass" (conservative
	// blackening).
	dirty bool

	stats struct {
		steals, attempts int64
	}
}

// group is the shared wiring of a ring.
type group struct {
	peers       []*peer
	tokenRounds int64
}

// fillDefaults normalizes the options in place.
func (opt *Options) fillDefaults() {
	if opt.Peers <= 0 {
		opt.Peers = 4
	}
	if opt.StepBudget <= 0 {
		opt.StepBudget = 4096
	}
	if opt.InitialUpper <= 0 {
		opt.InitialUpper = bb.Infinity
	}
}

// newGroup wires a ring of peers over fresh problems: peer 0 starts with
// the whole tree, the others start empty and steal their first interval —
// exactly how grid workers join an ongoing computation.
func newGroup(factory func() bb.Problem, opt Options) (*group, *sharedBest) {
	nb := core.NewNumbering(factory().Shape())
	best := &sharedBest{cost: opt.InitialUpper}
	g := &group{}
	for i := 0; i < opt.Peers; i++ {
		p := &peer{idx: i}
		iv := interval.Interval{}
		if i == 0 {
			iv = nb.RootRange()
		}
		p.ex = core.NewExplorer(factory(), nb, iv, opt.InitialUpper)
		p.ex.OnImprove = func(sol bb.Solution) { best.offer(sol) }
		g.peers = append(g.peers, p)
	}
	return g, best
}

// result assembles the common Result block from the group's final state.
func (g *group) result(best *sharedBest) Result {
	res := Result{Best: best.solution(), PerPeer: make([]int64, len(g.peers)), TokenRounds: g.tokenRounds}
	for i, p := range g.peers {
		st := p.ex.Stats()
		res.Stats.Add(st)
		res.PerPeer[i] = st.Explored
		res.Steals += p.stats.steals
		res.StealAttempts += p.stats.attempts
	}
	return res
}

// donate carves off half of the remaining interval via the shared donation
// operator (core.Donate / interval.Halve), or returns an empty interval
// when there is nothing worth giving. A victim restricts itself to the
// left half, the part it is already exploring (§4.2).
func (p *peer) donate() interval.Interval {
	give := core.Donate(p.ex)
	if !give.IsEmpty() {
		p.dirty = true
	}
	return give
}

// advanceToken applies the Dijkstra–Feijen–van Gasteren counting rules at
// this peer and reports whether a white round completed (termination). It
// is a pure state transition; delivery to the successor is the caller's
// business.
func (p *peer) advanceToken(t token) (token, bool) {
	if p.dirty {
		t.black = true
		p.dirty = false
	}
	if p.idx == 0 {
		t.rounds++
		if !t.black && t.rounds > 1 {
			// A full circulation of a white token over idle
			// peers: no work anywhere, nothing in flight.
			return t, true
		}
		t.black = false // start a fresh round
	}
	return t, false
}
