package farmer

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/interval"
	"repro/internal/transport"
)

// requestRetireAllocs is the pinned heap-allocation count of one request
// plus the finished fold that retires the grant, on a 2000-entry table
// over a 50-job numbering, whose node numbers spill to math/big
// (DESIGN.md §8). The split runs in place, the holder power is kept, and
// the selection divides on scratch; what is left is the new entry, its
// owner, the two replies' own copies, and the four of the fold's
// Remaining, which the caller builds.
const requestRetireAllocs = 27

// requestRetireAllocsWord is the same count over an 18-job numbering,
// whose node numbers fit a machine word: the bounds, the copies and the
// arithmetic cost no allocation at all, and what is left is the new
// entry's own bookkeeping structures.
const requestRetireAllocsWord = 5

// TestRequestRetireAllocs holds the request path's allocation budget in
// tier-1, in the shape of BenchmarkFarmerRequestThroughput/workers=2000:
// 2000 owned entries over a 50-job numbering, eight host classes, and each
// grant retired by its finished fold so the table keeps its size. The
// worker ids are built outside the measured call. Any new allocation on
// the path fails it; a saving says so, so the pin can follow it down.
func TestRequestRetireAllocs(t *testing.T) {
	checkRequestRetireAllocs(t, new(big.Int).MulRange(1, 50), requestRetireAllocs)
}

// TestRequestRetireAllocsWordPath is TestRequestRetireAllocs over an
// 18-job root (18! < 2^63): the word path every simulated, proved and
// tenant tree runs on.
func TestRequestRetireAllocsWordPath(t *testing.T) {
	checkRequestRetireAllocs(t, new(big.Int).MulRange(1, 18), requestRetireAllocsWord)
}

func checkRequestRetireAllocs(t *testing.T, leaves *big.Int, budget int) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates differently")
	}
	const workers = 2000
	powers := []int64{800, 1300, 1700, 2000, 2200, 2400, 2800, 3200}
	root := interval.New(new(big.Int), leaves)
	f := New(root, WithClock(func() int64 { return 0 }))
	ids := make([]transport.WorkerID, workers)
	for i := range ids {
		if _, err := f.RequestWork(transport.WorkRequest{Worker: transport.WorkerID(fmt.Sprintf("seed-%d", i)), Power: powers[i%len(powers)]}); err != nil {
			t.Fatal(err)
		}
		ids[i] = transport.WorkerID(fmt.Sprintf("req-%d", i))
	}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		w := ids[i%workers]
		reply, err := f.RequestWork(transport.WorkRequest{Worker: w, Power: powers[i%len(powers)]})
		if err != nil || reply.Status != transport.WorkAssigned {
			t.Fatalf("request %d: %v, status %v", i, err, reply.Status)
		}
		// The fold's Remaining owns its bounds, like a decoded one.
		end := reply.Interval.Hi()
		if _, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: w, IntervalID: reply.IntervalID, Remaining: interval.Of(end, end).Clone(),
		}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if f.TrackedCountForTest() != workers {
		t.Fatalf("table holds %d entries, want %d", f.TrackedCountForTest(), workers)
	}
	switch {
	case got > float64(budget):
		t.Fatalf("request+retire allocates %.1f times, budget %d", got, budget)
	case got < float64(budget):
		t.Fatalf("request+retire allocates %.1f times, under the budget %d: lower the pin", got, budget)
	}
}
