package farmer

import (
	"fmt"
	"math/big"

	"repro/internal/interval"
)

// Test-only hooks. SelectOracleForTest is the RETAINED SEED SELECTION SCAN
// (PR 1–3 behavior, verbatim): the index in index.go must return
// byte-identical decisions, which index_oracle_test.go pins by running both
// over the same live state.

// NewSubFarmerForTest builds a lone sub-farmer over any parent, the way
// NewTree builds each of its own.
var NewSubFarmerForTest = newSubFarmer

// SelectOracleForTest runs the seed linear scan over the current INTERVALS
// and returns the decision it would take for a requester of the given
// power: the chosen interval id and the donated length that won. It
// mutates nothing (callers sync the pre-request expiry/clean explicitly).
func (f *Farmer) SelectOracleForTest(power int64) (id int64, donated *big.Int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var chosen *tracked
	bestDonated := new(big.Int)
	for _, t := range f.intervals {
		d := seedDonated(t.iv, ownerPowerSum(t), power)
		if chosen == nil || d.Cmp(bestDonated) > 0 ||
			(d.Cmp(bestDonated) == 0 && t.id < chosen.id) {
			chosen = t
			bestDonated.Set(d)
		}
	}
	if chosen == nil {
		return 0, nil, false
	}
	return chosen.id, bestDonated, true
}

// seedDonated is the seed's donated length, len([C,B)) for a split of iv
// between a holder of power hp and a requester of power rp.
func seedDonated(iv interval.Interval, hp, rp int64) *big.Int {
	l := iv.Len()
	if hp <= 0 {
		return l
	}
	if rp <= 0 {
		return new(big.Int)
	}
	l.Mul(l, big.NewInt(rp))
	return l.Quo(l, big.NewInt(hp+rp))
}

// SelectIndexForTest answers the same question through the selection index
// and also returns the winning donated length the index computed.
func (f *Farmer) SelectIndexForTest(power int64) (id int64, donated *big.Int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok = f.idx.selectBest(power)
	if !ok {
		return 0, nil, false
	}
	return id, f.idx.scrBest.Big(), true
}

// CleanForTest drains pending empty intervals, mirroring the sweep
// RequestWork performs before selecting.
func (f *Farmer) CleanForTest() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cleanLocked()
}

// TrackedCountForTest returns the INTERVALS cardinality without the
// Size() big.Int copy.
func (f *Farmer) TrackedCountForTest() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.intervals)
}

// CheckIndexInvariantsForTest verifies the selection index is a faithful
// mirror of INTERVALS: every tracked entry indexed exactly once under its
// live (length, holder power) key, every treap ordered by (len, id) with
// the max-heap priority property and correct min-id augmentation, and the
// incremental total equal to the re-summed table.
func (f *Farmer) CheckIndexInvariantsForTest() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[int64]bool)
	total := new(big.Int)
	for hp, root := range f.groupRootsLocked() {
		if root == nil {
			return fmt.Errorf("group %d has a nil root", hp)
		}
		if err := f.checkTreapLocked(root, hp, seen, total); err != nil {
			return err
		}
	}
	if len(seen) != len(f.intervals) {
		return fmt.Errorf("index holds %d entries, INTERVALS holds %d", len(seen), len(f.intervals))
	}
	if total.Cmp(f.idx.total.Big()) != 0 {
		return fmt.Errorf("incremental total %s, re-summed table %s", f.idx.total, total)
	}
	var powerSum int64
	for _, t := range f.intervals {
		powerSum += ownerPowerSum(t)
	}
	if powerSum != f.idx.powerSum {
		return fmt.Errorf("incremental power sum %d, re-summed table %d", f.idx.powerSum, powerSum)
	}
	return nil
}

// FleetPowerForTest re-exports the incremental fleet power.
func (f *Farmer) FleetPowerForTest() int64 { return f.FleetPower() }

// ownerPowerSum re-sums an entry's owner powers from the owner map: the
// oracles' independent view of the holder power the farmer keeps in
// tracked.power.
func ownerPowerSum(t *tracked) int64 {
	var p int64
	for _, o := range t.owners {
		p += o.power
	}
	return p
}

func (f *Farmer) groupRootsLocked() map[int64]*selNode { return f.idx.groups }

func (f *Farmer) checkTreapLocked(n *selNode, hp int64, seen map[int64]bool, total *big.Int) error {
	if n == nil {
		return nil
	}
	t := n.t
	if seen[t.id] {
		return fmt.Errorf("interval %d indexed twice", t.id)
	}
	seen[t.id] = true
	live, ok := f.intervals[t.id]
	if !ok || live != t {
		return fmt.Errorf("index entry %d is not (or not the same as) the INTERVALS entry", t.id)
	}
	if t.idxHP != hp {
		return fmt.Errorf("interval %d filed under power %d but cached %d", t.id, hp, t.idxHP)
	}
	if sum := ownerPowerSum(t); sum != hp || sum != t.power {
		return fmt.Errorf("interval %d filed under power %d with kept holder power %d, but its owners sum to %d", t.id, hp, t.power, sum)
	}
	if t.iv.Width().Cmp(t.idxLen) != 0 {
		return fmt.Errorf("interval %d cached length %s, live length %s", t.id, t.idxLen, t.iv.Len())
	}
	total.Add(total, t.idxLen.Big())
	minID := t.id
	for _, c := range []*selNode{n.left, n.right} {
		if c == nil {
			continue
		}
		if c.pri > n.pri {
			return fmt.Errorf("treap priority inversion at interval %d", t.id)
		}
		if c.minID < minID {
			minID = c.minID
		}
	}
	if n.left != nil && cmpKey(n.left.t.idxLen, n.left.t.id, n) >= 0 {
		return fmt.Errorf("treap order violated left of interval %d", t.id)
	}
	if n.right != nil && cmpKey(n.right.t.idxLen, n.right.t.id, n) <= 0 {
		return fmt.Errorf("treap order violated right of interval %d", t.id)
	}
	if n.minID != minID {
		return fmt.Errorf("stale min-id augmentation at interval %d: cached %d, actual %d", t.id, n.minID, minID)
	}
	if err := f.checkTreapLocked(n.left, hp, seen, total); err != nil {
		return err
	}
	return f.checkTreapLocked(n.right, hp, seen, total)
}
