package farmer

import (
	"math/big"
	"testing"

	"repro/internal/interval"
	"repro/internal/transport"
)

// The DESIGN.md §12 fold extensions, pinned at the public Coordinator
// boundary: gap declarations (edge trims and the deferred interior cut)
// and content-honest size accounting. Everything here drives the farmer
// exactly as a sub-farmer's fold would — no internal hooks.

// TestGapEdgeTrimsAtFoldTime: a gap clamped to an edge of the copy is
// free precision, trimmed off on the spot with no work movement.
func TestGapEdgeTrimsAtFoldTime(t *testing.T) {
	f, _ := newTestFarmer(1000)
	r, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})

	// Vouch the prefix [0,200) explored via a gap clamped to the A edge.
	up, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(0, 1000), Power: 10,
		HasGap: true, Gap: interval.FromInt64(0, 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Interval.Equal(interval.FromInt64(200, 1000)) {
		t.Fatalf("after prefix trim: %v, want [200,1000)", up.Interval)
	}
	// And the suffix [900,1000) via a gap clamped to the B edge.
	up, err = f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(200, 1000), Power: 10,
		HasGap: true, Gap: interval.FromInt64(900, 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Interval.Equal(interval.FromInt64(200, 900)) {
		t.Fatalf("after suffix trim: %v, want [200,900)", up.Interval)
	}
	if c := f.Counters(); c.GapCarves != 2 {
		t.Fatalf("GapCarves = %d, want 2 (one per edge trim)", c.GapCarves)
	}
}

// TestInteriorGapSplitsAtNextAllocation: a strictly interior gap is NOT
// carved at fold time (both sides hold the reporter's live fragments) but
// discounts Size immediately, and the next allocation cuts at the gap —
// the requester takes the live far side, the explored hole leaves
// INTERVALS entirely.
func TestInteriorGapSplitsAtNextAllocation(t *testing.T) {
	f, _ := newTestFarmer(1000)
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})

	up, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(0, 1000), Power: 10,
		HasGap: true, Gap: interval.FromInt64(400, 700),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The hull is untouched at fold time...
	if !up.Interval.Equal(interval.FromInt64(0, 1000)) {
		t.Fatalf("interior gap carved eagerly: %v", up.Interval)
	}
	// ...but the vouched hole is already discounted from the size.
	if _, total := f.Size(); total.Cmp(interval.NumInt64(700)) != 0 {
		t.Fatalf("Size total = %s, want 700 (1000 hull - 300 gap)", total)
	}

	r2, err := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Interval.Equal(interval.FromInt64(700, 1000)) {
		t.Fatalf("w2 assigned %v, want the far side [700,1000)", r2.Interval)
	}
	// The holder keeps [0,400): the hole [400,700) is gone from the table.
	up, err = f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r1.IntervalID,
		Remaining: interval.FromInt64(0, 1000), Power: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Interval.Equal(interval.FromInt64(0, 400)) {
		t.Fatalf("holder reconciled to %v, want [0,400)", up.Interval)
	}
	if _, total := f.Size(); total.Cmp(interval.NumInt64(700)) != 0 {
		t.Fatalf("Size total after the cut = %s, want 700", total)
	}
	if c := f.Counters(); c.GapCarves != 1 {
		t.Fatalf("GapCarves = %d, want 1", c.GapCarves)
	}
}

// TestContentDiscountsSize: a content-honest fold values the copy by the
// reporter's own count of unexplored ground, not the hull length, and the
// discount is clamped so a nonsense declaration cannot go negative.
func TestContentDiscountsSize(t *testing.T) {
	f, _ := newTestFarmer(1000)
	r, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})

	if _, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(0, 1000), Power: 10,
		Content: big.NewInt(150),
	}); err != nil {
		t.Fatal(err)
	}
	if _, total := f.Size(); total.Cmp(interval.NumInt64(150)) != 0 {
		t.Fatalf("Size total = %s, want the vouched 150", total)
	}
	// Content above the hull claims negative slack: clamp to the hull.
	if _, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(0, 1000), Power: 10,
		Content: big.NewInt(5000),
	}); err != nil {
		t.Fatal(err)
	}
	if _, total := f.Size(); total.Cmp(interval.NumInt64(1000)) != 0 {
		t.Fatalf("Size total = %s, want clamped to the 1000 hull", total)
	}
}

// TestGapFloorsContentSlack: when a fold carries both, the slack floor is
// the gap length — the gap is a vouched HOLE the partitioning operator
// may cut at, so the discount can never fall below it even if the content
// declaration is stale or absent on a later fold.
func TestGapFloorsContentSlack(t *testing.T) {
	f, _ := newTestFarmer(1000)
	r, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})

	if _, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "w1", IntervalID: r.IntervalID,
		Remaining: interval.FromInt64(0, 1000), Power: 10,
		HasGap: true, Gap: interval.FromInt64(400, 700),
		Content: big.NewInt(900), // claims only 100 slack, below the 300-unit gap
	}); err != nil {
		t.Fatal(err)
	}
	if _, total := f.Size(); total.Cmp(interval.NumInt64(700)) != 0 {
		t.Fatalf("Size total = %s, want 700 (gap floors the discount)", total)
	}
}

// TestCoOwnerRegrantKeepsOneCopy: a requester that already co-owns the
// selected interval (an earlier duplication, or its own abandoned copy
// after a lease blip) gets the SAME copy back — never a split-off or
// gap-carved new id, which would hand it ground its local table already
// covers and make a sub-farmer's INTERVALS overlap itself.
func TestCoOwnerRegrantKeepsOneCopy(t *testing.T) {
	f, _ := newTestFarmer(1000, withEndgameThreshold(interval.NumInt64(2000)))
	r1, _ := f.RequestWork(transport.WorkRequest{Worker: "w1", Power: 10})

	// Endgame (total 1000 < 2000): w2's request duplicates w1's copy.
	r2, err := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Duplicated || r2.IntervalID != r1.IntervalID {
		t.Fatalf("expected an endgame duplication of id %d, got id %d dup=%v",
			r1.IntervalID, r2.IntervalID, r2.Duplicated)
	}

	// w2 declares an interior gap on the shared copy; its own next
	// request must NOT gap-split the copy out from under itself.
	if _, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "w2", IntervalID: r2.IntervalID,
		Remaining: interval.FromInt64(0, 1000), Power: 10,
		HasGap: true, Gap: interval.FromInt64(400, 700),
	}); err != nil {
		t.Fatal(err)
	}
	again, err := f.RequestWork(transport.WorkRequest{Worker: "w2", Power: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Duplicated || again.IntervalID != r2.IntervalID {
		t.Fatalf("co-owner re-grant: got id %d dup=%v, want the held id %d back",
			again.IntervalID, again.Duplicated, r2.IntervalID)
	}
	if !again.Interval.Equal(interval.FromInt64(0, 1000)) {
		t.Fatalf("co-owner re-grant returned %v, want the whole held hull", again.Interval)
	}
	if card, _ := f.Size(); card != 1 {
		t.Fatalf("%d tracked intervals after the re-grant, want the single shared copy", card)
	}
}
