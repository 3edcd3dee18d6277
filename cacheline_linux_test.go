package repro

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/flowshop"
)

// TestProblemsShareNoCacheLine: two flowshop.Problems built back to back on
// one goroutine — what gridbb.Solve, the harness and every factory()-in-a-loop
// caller do — must explore as fast on two goroutines as two built each on its
// explorer's own goroutine. Before a Problem owned its scratch in padded
// blocks the allocator packed the two problems' hot slices into the same
// cache lines and both walks ran 40-90 % slower.
//
// Each proof is timed by the CPU time of the thread it runs on, not by the
// wall clock: other processes on the box inflate wall time but not a
// thread's CPU time, while cache-line ping-pong stalls the walking thread
// and so shows up in its CPU time in full.
func TestProblemsShareNoCacheLine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two processors")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	ins, err := flowshop.Ta056().Reduced(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	build := func() bb.Problem { return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll) }
	// pair sums the thread CPU time of two concurrent proofs; probs holds
	// the problems built up front, nil for "build your own".
	pair := func(probs []bb.Problem) time.Duration {
		var wg sync.WaitGroup
		cpu := make([]time.Duration, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				p := build()
				if probs != nil {
					p = probs[w]
				}
				t0 := threadCPU(t)
				bb.Solve(p, bb.Infinity)
				cpu[w] = threadCPU(t) - t0
			}(w)
		}
		wg.Wait()
		return cpu[0] + cpu[1]
	}
	// Load from outside only ever adds time, so each side's minimum over
	// alternating repetitions is the number that belongs to the code; a
	// loaded box gets more rounds before the verdict.
	together, apart := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 4; round++ {
		for rep := 0; rep < 3; rep++ {
			together = min(together, pair([]bb.Problem{build(), build()}))
			apart = min(apart, pair(nil))
		}
		if float64(together) <= 1.10*float64(apart) {
			return
		}
	}
	t.Fatalf("two problems built back to back explore in %v of CPU, two built on their own goroutines in %v: more than 10 %% apart", together, apart)
}

// threadCPU is the user+system CPU time the calling OS thread has used; the
// caller must hold runtime.LockOSThread.
func threadCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		t.Error(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
