package farmer

import (
	"math/big"
	"testing"

	"repro/internal/interval"
	"repro/internal/transport"
)

// TestPowerValidationAtBoundary pins the coordinator-boundary hardening:
// the farmer no longer trusts Power claims blindly. Non-positive request
// powers are rejected, non-positive update powers are ignored (the last
// credible estimate stands), and absurd claims are clamped at MaxPower in
// both directions — a 2^62 claim must not let one liar monopolize the
// partitioning operator.
func TestPowerValidationAtBoundary(t *testing.T) {
	newFarmer := func() *Farmer {
		return New(interval.FromInt64(0, 1_000_000), WithClock(func() int64 { return 0 }))
	}

	t.Run("request rejects non-positive", func(t *testing.T) {
		f := newFarmer()
		for _, p := range []int64{0, -1, -1 << 40} {
			if _, err := f.RequestWork(transport.WorkRequest{Worker: "w", Power: p}); err == nil {
				t.Errorf("power %d accepted, want rejection", p)
			}
		}
		if c := f.Counters().RejectedPowers; c != 3 {
			t.Errorf("RejectedPowers = %d, want 3", c)
		}
		if c := f.Counters().WorkAllocations; c != 0 {
			t.Errorf("rejected requests still allocated %d intervals", c)
		}
	})

	t.Run("request clamps absurd claims", func(t *testing.T) {
		f := newFarmer()
		// An honest holder takes the interval first.
		r1, err := f.RequestWork(transport.WorkRequest{Worker: "honest", Power: 100})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Status != transport.WorkAssigned {
			t.Fatalf("status %v", r1.Status)
		}
		// A liar claiming 2^62 nodes/sec is clamped to MaxPower: the
		// split donates len·MaxPower/(100+MaxPower) — almost all, but
		// never the degenerate everything a raw 2^62 would approach
		// with larger tables, and the clamp is observable.
		r2, err := f.RequestWork(transport.WorkRequest{Worker: "liar", Power: 1 << 62})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Status != transport.WorkAssigned {
			t.Fatalf("status %v", r2.Status)
		}
		if c := f.Counters().ClampedPowers; c != 1 {
			t.Errorf("ClampedPowers = %d, want 1", c)
		}
	})

	t.Run("update ignores non-positive and clamps absurd", func(t *testing.T) {
		f := newFarmer()
		r, err := f.RequestWork(transport.WorkRequest{Worker: "w", Power: 100})
		if err != nil {
			t.Fatal(err)
		}
		remaining := interval.New(big.NewInt(10), r.Interval.B())
		// A zero-power update is processed (losing the checkpoint would
		// hurt the worker) but the power estimate must not change: a
		// second requester's split shows which holder power was used.
		if _, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: "w", IntervalID: r.IntervalID, Remaining: remaining, Power: 0,
		}); err != nil {
			t.Fatal(err)
		}
		if c := f.Counters().IgnoredPowers; c != 1 {
			t.Errorf("IgnoredPowers = %d, want 1", c)
		}
		if c := f.Counters().RejectedPowers; c != 0 {
			t.Errorf("RejectedPowers = %d on a processed update, want 0 (the counter is for refused requests only)", c)
		}
		r2, err := f.RequestWork(transport.WorkRequest{Worker: "peer", Power: 100})
		if err != nil {
			t.Fatal(err)
		}
		// Equal powers (100 vs the retained 100) split the remainder in
		// half; had the zero overwritten the estimate, the holder power
		// would be 0 and the whole interval would be donated.
		want := new(big.Int).Sub(remaining.B(), remaining.A())
		want.Rsh(want, 1)
		if got := r2.Interval.Len(); got.Cmp(want) != 0 {
			t.Errorf("donated %s, want the even split %s (holder power mutated by a zero-power update?)", got, want)
		}

		// An absurd update claim is clamped, and counted.
		if _, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: "w", IntervalID: r.IntervalID, Remaining: r2d(f, r.IntervalID), Power: 1 << 61,
		}); err != nil {
			t.Fatal(err)
		}
		if c := f.Counters().ClampedPowers; c != 1 {
			t.Errorf("ClampedPowers = %d, want 1", c)
		}
	})
}

// r2d reads the coordinator's current copy of an interval so an update can
// report "no progress" without fabricating bounds.
func r2d(f *Farmer, id int64) interval.Interval {
	for _, rec := range f.IntervalsSnapshot() {
		if rec.ID == id {
			return rec.Interval
		}
	}
	return interval.Interval{}
}

// TestHolderPowerKeptThroughEveryOwnerMutation drives every path that
// changes an owner set or an owner's power, and after each one checks the
// kept holder power against the owner maps re-summed (the index
// invariants) and the fleet power against the hand-computed sum.
func TestHolderPowerKeptThroughEveryOwnerMutation(t *testing.T) {
	step := func(f *Farmer, name string, fleet int64) {
		t.Helper()
		if err := f.CheckIndexInvariantsForTest(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f.FleetPower(); got != fleet {
			t.Fatalf("%s: fleet power %d, want %d", name, got, fleet)
		}
	}
	request := func(f *Farmer, w transport.WorkerID, power int64) transport.WorkReply {
		t.Helper()
		r, err := f.RequestWork(transport.WorkRequest{Worker: w, Power: power})
		if err != nil || r.Status != transport.WorkAssigned {
			t.Fatalf("request from %s: %v, status %v", w, err, r.Status)
		}
		return r
	}
	update := func(f *Farmer, w transport.WorkerID, id, a, b, power int64, gap interval.Interval) transport.UpdateReply {
		t.Helper()
		r, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: w, IntervalID: id, Remaining: interval.FromInt64(a, b), Power: power,
			HasGap: !gap.IsEmpty(), Gap: gap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	none := interval.Interval{}

	// Splits, the gap carve, power updates, lease expiry and re-admission,
	// and the stale-copy drop.
	f, clk := newTestFarmer(1_000_000, WithLeaseTTL(100))
	r1 := request(f, "w1", 10)
	step(f, "orphan hand-off", 10)
	r2 := request(f, "w2", 30) // splits w1's copy: [0,250000) and [250000,1000000)
	step(f, "split admit", 40)
	update(f, "w2", r2.IntervalID, 250_000, 1_000_000, 30, interval.FromInt64(400_000, 500_000))
	request(f, "w3", 10) // the gapped copy donates the most: cut at the gap
	if c := f.Counters(); c.GapCarves != 1 {
		t.Fatalf("GapCarves = %d, want 1", c.GapCarves)
	}
	step(f, "gap carve", 50)
	update(f, "w1", r1.IntervalID, 0, 250_000, 50, none)
	step(f, "power update", 90)
	update(f, "w1", r1.IntervalID, 0, 250_000, 0, none)
	if c := f.Counters(); c.IgnoredPowers != 1 {
		t.Fatalf("IgnoredPowers = %d, want 1", c.IgnoredPowers)
	}
	step(f, "ignored non-positive power", 90)
	clk.now = 1000
	f.ExpireNow()
	if c := f.Counters(); c.ExpiredOwners != 3 {
		t.Fatalf("ExpiredOwners = %d, want 3", c.ExpiredOwners)
	}
	step(f, "lease expiry", 0)
	update(f, "w1", r1.IntervalID, 0, 250_000, 20, none)
	step(f, "re-admission", 20)
	if r := update(f, "w2", r2.IntervalID, 100, 200, 30, none); r.Known {
		t.Fatal("an update entirely behind the copy kept its owner")
	}
	step(f, "stale-copy drop", 20)

	// Below-threshold duplication, then the co-owner re-grant.
	f, _ = newTestFarmer(1000, WithThreshold(interval.NumInt64(2000)))
	r1 = request(f, "w1", 10)
	step(f, "orphan hand-off", 10)
	if r := request(f, "w2", 20); !r.Duplicated || r.IntervalID != r1.IntervalID {
		t.Fatalf("below-threshold request not duplicated: %+v", r)
	}
	step(f, "below-threshold duplication", 30)
	if r := request(f, "w2", 40); !r.Duplicated || r.IntervalID != r1.IntervalID {
		t.Fatalf("co-owner request not re-granted: %+v", r)
	}
	step(f, "co-owner re-grant", 50)

	// Endgame duplication.
	f, _ = newTestFarmer(1_000_000, withEndgameThreshold(interval.NumInt64(2_000_000)))
	request(f, "w1", 10)
	request(f, "w2", 25)
	if c := f.Counters(); c.EndgameDuplications != 1 {
		t.Fatalf("EndgameDuplications = %d, want 1", c.EndgameDuplications)
	}
	step(f, "endgame duplication", 35)
}
