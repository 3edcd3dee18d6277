// Ring checkpointing: the §4.1 two-file mechanism replayed at the p2p
// tier, closing the fault-tolerance gap the paper's §6 future-work left
// open. Every peer owns a checkpoint namespace ("peer-<i>") holding one
// snapshot: its frontier interval (the folded remainder, eq. 10) and the
// best solution it knows. The write discipline keeps one invariant: a
// peer's snapshot always covers everything only that peer owns.
//
//   - A thief checkpoints twice immediately after a successful steal — so
//     stolen work enters BOTH durable generations before the victim's
//     restriction can make it unreachable from anyone else's. A single
//     save would leave the previous generation pre-steal: a later torn
//     write of the current file would fall back to a frontier that no
//     longer covers the stolen interval once the victim re-checkpoints.
//   - A victim never needs an immediate save: donation and exploration
//     only shrink its remainder, so a stale snapshot over-covers — pure
//     rework on restore, never loss.
//   - Periodic saves (the harness's checkpoint cadence) bound that rework
//     to the work done since the last save, exactly §4.1's guarantee.
//
// Termination stays sound through the Dijkstra–Feijen–van Gasteren rules:
// a restored peer comes back dirty, so any token passing it goes black and
// no white round can complete until a full clean circulation after the
// restore; and a dead peer blocks token delivery entirely, so the ring
// cannot terminate while any peer — and the work its snapshot re-opens —
// is missing.

package p2p

import (
	"fmt"
	"math/big"

	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/interval"
)

// AttachStore gives every peer a checkpoint namespace under store and
// snapshots the initial state (peer 0 the root range, the rest empty), so
// a kill at any later sweep finds a loadable generation. Call before the
// first Sweep.
func (l *Lockstep) AttachStore(store *checkpoint.Store) error {
	n := len(l.g.peers)
	l.stores = make([]*checkpoint.Store, n)
	l.dead = make([]bool, n)
	l.epochs = make([]int64, n)
	for i := 0; i < n; i++ {
		ns, err := store.Namespace(fmt.Sprintf("peer-%d", i))
		if err != nil {
			return err
		}
		l.stores[i] = ns
	}
	return l.CheckpointAll()
}

// Dead reports whether peer i is currently killed.
func (l *Lockstep) Dead(i int) bool { return l.dead != nil && l.dead[i] }

// StoreErr returns the first checkpoint-save error hit inside a sweep
// (steal-time saves have no error path of their own); nil when healthy.
func (l *Lockstep) StoreErr() error { return l.storeErr }

// CheckpointAll snapshots every live peer — the periodic cadence. A dead
// peer's disk state stays frozen at its crash, exactly like a farmer's.
func (l *Lockstep) CheckpointAll() error {
	if l.stores == nil {
		return nil
	}
	for i := range l.g.peers {
		if l.dead[i] {
			continue
		}
		if err := l.checkpointPeer(i); err != nil {
			return err
		}
	}
	return nil
}

// checkpointPeer writes one peer's two-file snapshot: frontier interval,
// TotalLen cross-check, and the best solution this peer can vouch for.
func (l *Lockstep) checkpointPeer(i int) error {
	p := l.g.peers[i]
	rem := p.ex.Remaining()
	snap := checkpoint.Snapshot{Epoch: l.epochs[i], TotalLen: new(big.Int)}
	if !rem.IsEmpty() {
		snap.Intervals = []checkpoint.IntervalRecord{{ID: l.epochs[i], Interval: rem}}
		snap.TotalLen = rem.Len()
	}
	sol := l.best.solution()
	snap.BestCost, snap.BestPath = sol.Cost, sol.Path
	return l.stores[i].Save(snap)
}

// noteSteal persists the thief's new ownership — twice, so that both
// generations of its snapshot cover the stolen interval and a fallback
// load can never re-open a pre-steal frontier (every other transition a
// peer makes — exploring, donating — only shrinks its remainder, so for
// those the older generation over-covers by construction; a steal is the
// one transition that grows it). Failures latch into StoreErr: the steal
// itself already happened, and a missed save only widens the rework
// window, the same way a failed farmer checkpoint does.
func (l *Lockstep) noteSteal(thief int) {
	if l.stores == nil {
		return
	}
	for k := 0; k < 2; k++ {
		if err := l.checkpointPeer(thief); err != nil {
			if l.storeErr == nil {
				l.storeErr = err
			}
			return
		}
	}
}

// Kill crashes peer i: its in-memory frontier is gone and it neither
// explores, donates, steals, nor passes the token until restored. The
// token never enters a dead peer, so termination is impossible while the
// ring has a hole — the conservative guarantee that makes a lost peer
// cost time, never correctness.
func (l *Lockstep) Kill(i int) {
	if l.stores == nil {
		panic("p2p: Kill without AttachStore")
	}
	if l.dead[i] {
		return
	}
	l.dead[i] = true
	l.record("kill", i, -1, interval.Interval{})
}

// Restore brings a killed peer back from its own snapshot: a fresh
// explorer over the persisted frontier, the persisted best offered to the
// shared incumbent, the epoch bumped, and — crucially — the peer marked
// dirty so the next token round goes black (DFvG safety: the re-opened
// work must be re-proven drained). Returns the re-opened interval so the
// caller can budget the rework it may duplicate.
func (l *Lockstep) Restore(i int) (interval.Interval, error) {
	if l.stores == nil {
		panic("p2p: Restore without AttachStore")
	}
	if !l.dead[i] {
		return interval.Interval{}, fmt.Errorf("p2p: restore of live peer %d", i)
	}
	snap, err := l.stores[i].Load()
	if err != nil {
		return interval.Interval{}, fmt.Errorf("p2p: restore peer %d: %w", i, err)
	}
	var iv interval.Interval
	if len(snap.Intervals) > 0 {
		iv = snap.Intervals[0].Interval
	}
	p := l.g.peers[i]
	nb := core.NewNumbering(l.factory().Shape())
	if snap.BestCost < bb.Infinity && len(snap.BestPath) > 0 {
		l.best.offer(bb.Solution{Cost: snap.BestCost, Path: snap.BestPath})
	}
	p.ex = core.NewExplorer(l.factory(), nb, iv, l.best.get())
	p.ex.OnImprove = func(sol bb.Solution) { l.best.offer(sol) }
	p.dirty = true
	l.epochs[i] = snap.Epoch + 1
	l.dead[i] = false
	l.record("restore", i, -1, iv.Clone())
	// Persist the restored incarnation right away: the epoch bump and the
	// re-opened frontier become durable before any new exploration.
	if err := l.checkpointPeer(i); err != nil {
		return iv, err
	}
	return iv, nil
}
