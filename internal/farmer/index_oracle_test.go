package farmer

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/interval"
	"repro/internal/transport"
)

// TestSelectionOracleRandomStreams is the acceptance oracle of the indexed
// farmer (DESIGN.md §8): across randomized request/update/expiry streams,
// the index must return byte-identical (interval id, donated length)
// decisions to the retained seed linear scan, on exactly the state the
// seed would have selected over. Trials mix tiny roots (floor ties and the
// duplication rule fire constantly) with Ta056-scale roots (realistic
// lengths), and powers come in a few classes including zero (the orphan
// tie case) so holder-power groups collide and tie.
func TestSelectionOracleRandomStreams(t *testing.T) {
	roots := []*big.Int{
		big.NewInt(40),                       // crumb scale: every decision is a tie-break
		big.NewInt(100_000),                  // mid scale
		new(big.Int).Lsh(big.NewInt(1), 214), // Ta056 scale
	}
	powers := []int64{0, 1, 1, 2, 3, 7, 7, 2200, 3200}
	const ttl = 50 * time.Nanosecond
	for trial := 0; trial < 60; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			root := roots[trial%len(roots)]
			var now int64
			f := New(interval.New(new(big.Int), root),
				WithClock(func() int64 { return now }),
				WithLeaseTTL(ttl),
				WithThreshold(interval.NumInt64(4)))

			type assignment struct {
				w  transport.WorkerID
				id int64
				iv interval.Interval
			}
			var live []assignment
			decisions := 0
			for step := 0; step < 300; step++ {
				now += int64(rng.Intn(20)) // some steps cross the lease TTL
				switch op := rng.Intn(10); {
				case op < 5: // RequestWork, oracle-checked
					w := transport.WorkerID(fmt.Sprintf("w%d", rng.Intn(12)))
					p := powers[rng.Intn(len(powers))]
					// Sync the pre-selection sweeps so both selectors see
					// the exact state RequestWork will select over.
					f.ExpireNow()
					f.CleanForTest()
					oid, od, ook := f.SelectOracleForTest(p)
					iid, id2, iok := f.SelectIndexForTest(p)
					if ook != iok {
						t.Fatalf("step %d: oracle found=%v, index found=%v", step, ook, iok)
					}
					if ook {
						if oid != iid {
							t.Fatalf("step %d: oracle chose interval %d, index chose %d (power %d)", step, oid, iid, p)
						}
						if od.Cmp(id2) != 0 {
							t.Fatalf("step %d: oracle donated %s, index donated %s (interval %d, power %d)", step, od, id2, oid, p)
						}
						decisions++
					}
					// The boundary rejects non-positive powers since the
					// transport hardening; the selectors' zero-power
					// semantics stay pinned by the probes above, while
					// the state evolution uses a valid claim.
					reply, err := f.RequestWork(transport.WorkRequest{Worker: w, Power: max(p, 1)})
					if err != nil {
						t.Fatal(err)
					}
					if reply.Status == transport.WorkAssigned && !reply.Interval.IsEmpty() {
						live = append(live, assignment{w: w, id: reply.IntervalID, iv: reply.Interval})
					}
				case op < 9: // UpdateInterval: advance, sometimes finish
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					as := &live[i]
					a, b := as.iv.A(), as.iv.B()
					span := new(big.Int).Sub(b, a)
					if span.Sign() <= 0 || rng.Intn(4) == 0 {
						a.Set(b) // finished: report the empty fold [B,B)
					} else {
						a.Add(a, new(big.Int).Rand(rng, span))
					}
					rem := interval.New(a, b)
					reply, err := f.UpdateInterval(transport.UpdateRequest{
						Worker: as.w, IntervalID: as.id, Remaining: rem,
						Power: powers[rng.Intn(len(powers))], ExploredDelta: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reply.Known || reply.Interval.IsEmpty() {
						live = append(live[:i], live[i+1:]...)
					} else {
						as.iv = reply.Interval
					}
				default: // a long silence: leases lapse wholesale
					now += int64(ttl) * 3
				}
				if step%25 == 0 {
					if err := f.CheckIndexInvariantsForTest(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := f.CheckIndexInvariantsForTest(); err != nil {
				t.Fatal(err)
			}
			if decisions == 0 && f.TrackedCountForTest() > 0 {
				t.Fatal("stream made no oracle-checked decisions")
			}
		})
	}
}

// TestSelIndexBruteForce drives the index-level API directly against a
// brute-force scan over synthetic entries, covering churn shapes the
// protocol never produces in one stream (wild power swings, length
// rewrites both ways, interleaved removes).
func TestSelIndexBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		x := newSelIndex()
		byID := make(map[int64]*tracked)
		nextID := int64(0)
		add := func() {
			length := int64(rng.Intn(1000))
			tr := &tracked{
				id: nextID,
				iv: interval.FromInt64(0, length),
			}
			tr.owners = map[transport.WorkerID]*owner{}
			if hp := int64(rng.Intn(5)); hp > 0 {
				tr.setOwner("h", &owner{power: hp})
			}
			nextID++
			byID[tr.id] = tr
			x.insert(tr)
		}
		for i := 0; i < 30; i++ {
			add()
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				add()
			case op == 1 && len(byID) > 1:
				for id, tr := range byID { // first map key: any victim
					x.remove(tr)
					delete(byID, id)
					break
				}
			case op < 6 && len(byID) > 0: // mutate then fix
				for _, tr := range byID {
					tr.iv = interval.FromInt64(0, int64(rng.Intn(1000)))
					if rng.Intn(2) == 0 {
						if hp := int64(rng.Intn(5)); hp > 0 {
							tr.setOwner("h", &owner{power: hp})
						} else {
							tr.dropOwner("h")
						}
					}
					x.fix(tr)
					break
				}
			default: // select and verify
				rp := int64(rng.Intn(4))
				gotID, gotOK := x.selectBest(rp)
				wantID, wantD, wantOK := bruteSelect(byID, rp)
				if gotOK != wantOK {
					t.Fatalf("trial %d step %d: found=%v, brute=%v", trial, step, gotOK, wantOK)
				}
				if !gotOK {
					continue
				}
				if gotID != wantID {
					t.Fatalf("trial %d step %d: index chose %d, brute force chose %d (rp=%d)", trial, step, gotID, wantID, rp)
				}
				if x.scrBest.Cmp(interval.NumBig(wantD)) != 0 {
					t.Fatalf("trial %d step %d: index donated %s, brute force %s", trial, step, x.scrBest, wantD)
				}
			}
		}
		// The incremental total survives the churn.
		sum := new(big.Int)
		for _, tr := range byID {
			sum.Add(sum, tr.iv.Len())
		}
		if sum.Cmp(x.total.Big()) != 0 {
			t.Fatalf("trial %d: incremental total %s, actual %s", trial, x.total, sum)
		}
	}
}

// bruteSelect is the seed decision rule over a plain map.
func bruteSelect(byID map[int64]*tracked, rp int64) (int64, *big.Int, bool) {
	var chosen *tracked
	best := new(big.Int)
	d := new(big.Int)
	for _, t := range byID {
		l := t.iv.Len()
		hp := ownerPowerSum(t)
		switch {
		case hp <= 0:
			d.Set(l)
		case rp <= 0:
			d.SetInt64(0)
		default:
			d.Mul(l, big.NewInt(rp))
			d.Quo(d, big.NewInt(hp+rp))
		}
		if chosen == nil || d.Cmp(best) > 0 || (d.Cmp(best) == 0 && t.id < chosen.id) {
			chosen = t
			best.Set(d)
		}
	}
	if chosen == nil {
		return 0, nil, false
	}
	return chosen.id, best, true
}

// TestLeaseHeapOrder: the deadline heap pops in order whatever the push
// order, the base property the lazy expiry sweep rests on — and still does
// after a compaction has filtered stale entries out from under it.
func TestLeaseHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h lazyHeap[leaseEntry]
	n, live := 500, 0
	for i := 0; i < n; i++ {
		d := int64(rng.Intn(100))
		if d%3 != 0 {
			live++
		}
		h.push(leaseEntry{deadline: d})
	}
	h.compactIfFull(func(e leaseEntry) bool { return e.deadline%3 != 0 })
	if len(h.s) != live || h.limit != 2*live+lazyHeapSlack {
		t.Fatalf("compaction kept %d entries under limit %d, want %d under %d", len(h.s), h.limit, live, 2*live+lazyHeapSlack)
	}
	last := int64(-1)
	for i := 0; i < live; i++ {
		e := h.pop()
		if e.deadline < last || e.deadline%3 == 0 {
			t.Fatalf("pop %d: deadline %d after %d", i, e.deadline, last)
		}
		last = e.deadline
	}
	if len(h.s) != 0 {
		t.Fatalf("heap not drained: %d left", len(h.s))
	}
}

// TestExpiryHeapMatchesSeedSemantics pins the lazy sweep to the seed rule
// "expire iff now − lastSeen > TTL": an owner that keeps reporting never
// expires however old its first heap entry, and one that goes silent
// expires on the first request after the deadline passes.
func TestExpiryHeapMatchesSeedSemantics(t *testing.T) {
	var now int64
	f := New(interval.FromInt64(0, 1_000_000),
		WithClock(func() int64 { return now }),
		WithLeaseTTL(100*time.Nanosecond))
	reply, err := f.RequestWork(transport.WorkRequest{Worker: "alive", Power: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Report every 60ns for a while: always inside the lease.
	cur := reply.Interval
	for i := 0; i < 10; i++ {
		now += 60
		a := cur.A()
		a.Add(a, big.NewInt(10))
		up, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: "alive", IntervalID: reply.IntervalID, Remaining: interval.New(a, cur.B()),
		})
		if err != nil {
			t.Fatal(err)
		}
		cur = up.Interval
	}
	f.ExpireNow()
	if n := f.Counters().ExpiredOwners; n != 0 {
		t.Fatalf("a worker reporting every 60ns of a 100ns lease expired %d times", n)
	}
	// Exactly at the deadline: not yet expired (strict >).
	now += 100
	f.ExpireNow()
	if n := f.Counters().ExpiredOwners; n != 0 {
		t.Fatalf("owner expired at now-lastSeen == TTL; the seed rule is strict: %d", n)
	}
	now++
	f.ExpireNow()
	if n := f.Counters().ExpiredOwners; n != 1 {
		t.Fatalf("silent owner past its lease not expired: ExpiredOwners=%d", n)
	}
	if err := f.CheckIndexInvariantsForTest(); err != nil {
		t.Fatal(err)
	}
}

// churn runs n worker life cycles against f: a power-1 request, then the
// retiring fold [B,B) — each leaves one stale entry in every lazy heap.
func churn(t *testing.T, f *Farmer, n int, each func(i int)) {
	t.Helper()
	for i := 0; i < n; i++ {
		w := transport.WorkerID(fmt.Sprintf("churn-%d", i%7))
		rep, err := f.RequestWork(transport.WorkRequest{Worker: w, Power: 1})
		if err != nil || rep.Status != transport.WorkAssigned {
			t.Fatalf("cycle %d: request answered %v, %v", i, rep.Status, err)
		}
		end := rep.Interval.B()
		if _, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: w, IntervalID: rep.IntervalID, Remaining: interval.New(end, end), Power: 1,
		}); err != nil {
			t.Fatalf("cycle %d: retiring fold: %v", i, err)
		}
		if each != nil {
			each(i)
		}
	}
}

// TestLazyHeapsStayBounded pins the compaction rule where it matters: 100k
// request → retire cycles against a preloaded table, under a lease no
// entry outlives, must leave both heaps within a constant factor of what
// is live — not 100k entries each pinning a retired interval.
func TestLazyHeapsStayBounded(t *testing.T) {
	const holders, cycles = 300, 100_000
	f := New(interval.FromInt64(0, 1<<60),
		WithClock(func() int64 { return 0 }), WithLeaseTTL(time.Hour), WithFrontierTracking())
	for i := 0; i < holders; i++ {
		w := transport.WorkerID(fmt.Sprintf("holder-%d", i))
		if rep, err := f.RequestWork(transport.WorkRequest{Worker: w, Power: 800 + int64(i%8)*300}); err != nil || rep.Status != transport.WorkAssigned {
			t.Fatalf("preload %d: %v, %v", i, rep.Status, err)
		}
	}
	var maxLease, maxFront int
	churn(t, f, cycles, func(int) {
		maxLease = max(maxLease, len(f.lease.s))
		maxFront = max(maxFront, len(f.front.s))
	})
	owners := 0
	for _, tr := range f.intervals {
		owners += len(tr.owners)
	}
	if len(f.intervals) != holders || owners != holders {
		t.Fatalf("table drifted to %d intervals, %d owners; the cycles should leave it at %d", len(f.intervals), owners, holders)
	}
	// Twice the live entries plus the slack is the rule; one more cycle's
	// push may sit on top before the next compaction.
	if bound := 2*(owners+1) + lazyHeapSlack + 1; maxLease > bound {
		t.Fatalf("lease heap reached %d entries for %d owners (bound %d)", maxLease, owners, bound)
	}
	if bound := 2*(holders+1) + lazyHeapSlack + 1; maxFront > bound {
		t.Fatalf("frontier heap reached %d entries for %d intervals (bound %d)", maxFront, holders, bound)
	}
	var front interval.Num
	if !f.frontierLocked(&front) || front.Sign() != 0 {
		t.Fatalf("frontier after the churn = %v, want the root's beginning", front)
	}
}

// TestExpirySurvivesCompaction: compaction may only drop entries that were
// going to be discarded anyway. An owner whose entry lived through several
// compactions still expires on the first sweep past its deadline — not
// before, not later — and one that reported in the meantime is re-armed,
// not expired.
func TestExpirySurvivesCompaction(t *testing.T) {
	var now int64
	f := New(interval.FromInt64(0, 1<<60),
		WithClock(func() int64 { return now }), WithLeaseTTL(100*time.Nanosecond))
	var held [2]transport.WorkReply
	for i, w := range []transport.WorkerID{"silent", "reporting"} {
		var err error
		if held[i], err = f.RequestWork(transport.WorkRequest{Worker: w, Power: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	now = 10
	churn(t, f, 1000, nil)
	if pushed, left := 2+1000, len(f.lease.s); left > 2*3+lazyHeapSlack+1 {
		t.Fatalf("%d of %d lease entries left: no compaction ran", left, pushed)
	}
	now = 50
	if up, err := f.UpdateInterval(transport.UpdateRequest{
		Worker: "reporting", IntervalID: held[1].IntervalID, Remaining: held[1].Interval, Power: 1000,
	}); err != nil || !up.Known {
		t.Fatalf("report at 50: known=%v, %v", up.Known, err)
	}
	for _, step := range []struct {
		now     int64
		expired int64
	}{
		{100, 0}, // at the deadline: the seed rule is strict
		{101, 1}, // the silent owner, exactly one tick past it
		{150, 1}, // the reporting owner was re-armed to 50+100
		{151, 2},
	} {
		now = step.now
		f.ExpireNow()
		if got := f.Counters().ExpiredOwners; got != step.expired {
			t.Fatalf("at now=%d: ExpiredOwners = %d, want %d", step.now, got, step.expired)
		}
	}
	if err := f.CheckIndexInvariantsForTest(); err != nil {
		t.Fatal(err)
	}
}
