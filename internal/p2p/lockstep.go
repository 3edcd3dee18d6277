package p2p

import (
	"math/rand"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/interval"
)

// LockstepEvent is one entry of the deterministic event trace.
type LockstepEvent struct {
	// Sweep is the round-robin pass the event happened in.
	Sweep int
	// Kind is one of "steal", "steal-empty", "steal-blocked",
	// "token", "token-blocked", "terminate", "kill", "restore".
	Kind string
	// From and To are peer indices (steal: thief ← victim; token:
	// holder → successor). -1 when not applicable.
	From, To int
	// Interval carries the moved work for "steal" events.
	Interval interval.Interval
}

// Lockstep drives a peer ring deterministically: every peer, in ring
// order, either explores one budget slice or — when idle — tries one steal
// and serves the token, all on the calling goroutine. A steal is a direct
// victim.donate() and a token pass is a field move, so the scheduler never
// enters the trace and equal seeds give byte-identical event sequences.
// Create with NewLockstep, advance with Sweep until it reports
// termination. Not safe for concurrent use — single-threadedness is its
// entire point.
type Lockstep struct {
	g       *group
	best    *sharedBest
	opt     Options
	rng     *rand.Rand
	factory func() bb.Problem // retained for Restore's fresh explorers

	// Blocked, when non-nil, vetoes communication between two peers —
	// the chaos hook. A blocked pair can neither steal nor pass the
	// token; a partition of the ring is Blocked returning true across
	// the cut. Termination stays correct under any Blocked function:
	// the token simply waits out the partition, it is never lost.
	Blocked func(a, b int) bool

	token      token
	tokenAt    int
	terminated bool

	// Ring checkpointing (ringstore.go): per-peer snapshot namespaces,
	// crash flags and restore epochs, nil/absent until AttachStore.
	stores   []*checkpoint.Store
	dead     []bool
	epochs   []int64
	storeErr error

	events []LockstepEvent
	sweeps int
}

// NewLockstep builds a deterministic ring. factory must return a fresh
// Problem per call.
func NewLockstep(factory func() bb.Problem, opt Options) *Lockstep {
	opt.fillDefaults()
	g, best := newGroup(factory, opt)
	return &Lockstep{
		g:       g,
		best:    best,
		opt:     opt,
		factory: factory,
		// A ring-level rng (not the per-peer ones): victim choices are
		// drawn in deterministic visit order.
		rng: rand.New(rand.NewSource(opt.Seed ^ 0x5bd1e995)),
	}
}

// Peers returns the ring size.
func (l *Lockstep) Peers() int { return len(l.g.peers) }

// Terminated reports whether the white-token round completed.
func (l *Lockstep) Terminated() bool { return l.terminated }

// Events returns the accumulated deterministic trace.
func (l *Lockstep) Events() []LockstepEvent { return l.events }

// Remaining returns peer i's current folded remainder (eq. 10).
func (l *Lockstep) Remaining(i int) interval.Interval {
	return l.g.peers[i].ex.Remaining()
}

// blocked consults the chaos hook.
func (l *Lockstep) blocked(a, b int) bool {
	return l.Blocked != nil && l.Blocked(a, b)
}

// record appends a trace event.
func (l *Lockstep) record(kind string, from, to int, iv interval.Interval) {
	l.events = append(l.events, LockstepEvent{Sweep: l.sweeps, Kind: kind, From: from, To: to, Interval: iv})
}

// Sweep performs one round-robin pass: every peer, in ring order, either
// explores one budget slice or — when idle — tries one steal and serves the
// token. It returns true when the resolution terminated.
func (l *Lockstep) Sweep() bool {
	if l.terminated {
		return true
	}
	l.sweeps++
	for _, p := range l.g.peers {
		if l.Dead(p.idx) {
			// A crashed peer does nothing — and because the token is
			// never delivered into it (serveToken), the ring cannot
			// declare termination while its work is unaccounted for.
			continue
		}
		if !p.ex.Done() {
			p.ex.AdoptBest(l.best.get())
			p.ex.Step(l.opt.StepBudget)
			continue
		}
		l.trySteal(p)
		l.serveToken(p)
		if l.terminated {
			return true
		}
	}
	return l.terminated
}

// trySteal probes the other peers in seeded random order until one donates
// half of its remainder (most peers are empty early on: a single random
// probe would routinely miss the few holders).
func (l *Lockstep) trySteal(p *peer) {
	n := len(l.g.peers)
	if n == 1 {
		return
	}
	for _, off := range l.rng.Perm(n - 1) {
		victimIdx := off
		if victimIdx >= p.idx {
			victimIdx++
		}
		p.stats.attempts++
		if l.blocked(p.idx, victimIdx) || l.Dead(victimIdx) {
			// A dead victim is indistinguishable from a partitioned
			// one: the request goes unanswered.
			l.record("steal-blocked", p.idx, victimIdx, interval.Interval{})
			continue
		}
		victim := l.g.peers[victimIdx]
		iv := victim.donate()
		if iv.IsEmpty() {
			l.record("steal-empty", p.idx, victimIdx, interval.Interval{})
			continue
		}
		p.ex.Reassign(iv)
		p.ex.AdoptBest(l.best.get())
		p.stats.steals++
		l.record("steal", p.idx, victimIdx, iv.Clone())
		// Ownership moved: the stolen interval must enter the thief's
		// snapshot now, before the victim's restriction makes it
		// unreachable from any other peer's checkpoint.
		l.noteSteal(p.idx)
		return
	}
}

// serveToken advances the termination token if this idle peer holds it.
// A busy peer holds the token (it is living proof the computation is not
// over); the token moves at most one hop per visit.
func (l *Lockstep) serveToken(p *peer) {
	if l.tokenAt != p.idx || !p.ex.Done() {
		return
	}
	next := (p.idx + 1) % len(l.g.peers)
	if l.blocked(p.idx, next) || l.Dead(next) {
		// The partition (or the successor's crash) holds the token; no
		// round can complete until it heals — conservative, like any
		// lost-message delay.
		l.record("token-blocked", p.idx, next, interval.Interval{})
		return
	}
	t, terminated := p.advanceToken(l.token)
	if terminated {
		l.g.tokenRounds = t.rounds
		l.terminated = true
		l.record("terminate", p.idx, -1, interval.Interval{})
		return
	}
	l.token = t
	l.tokenAt = next
	l.record("token", p.idx, next, interval.Interval{})
}

// Result assembles the final summary; call after termination.
func (l *Lockstep) Result() Result {
	return l.g.result(l.best)
}

// SolveLockstep runs a lockstep ring to completion (maxSweeps bounds
// runaway configurations; ≤ 0 means a generous default) and returns the
// result plus whether it actually terminated.
func SolveLockstep(factory func() bb.Problem, opt Options, maxSweeps int) (Result, bool) {
	l := NewLockstep(factory, opt)
	if maxSweeps <= 0 {
		maxSweeps = 1 << 20
	}
	for i := 0; i < maxSweeps; i++ {
		if l.Sweep() {
			return l.Result(), true
		}
	}
	return l.Result(), false
}
